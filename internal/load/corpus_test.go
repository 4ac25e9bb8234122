package load

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// serveMix is perfbench's serve mix, coldMix in perfbench/serve.go: every
// request kind except simulate-suite. serve-hot and serve-cold replay
// BuildCorpus under it, so its digest pins the bytes those workloads send.
var serveMix = []MixItem{
	{Kind: KindAlignAsm, Weight: 40},
	{Kind: KindAlignCFGJSON, Weight: 15},
	{Kind: KindAlignCFGDOT, Weight: 15},
	{Kind: KindSimInline, Weight: 20},
}

// corpusDigest hashes every entry's kind, path, body and cache key in
// corpus order.
func corpusDigest(c *Corpus) string {
	h := sha256.New()
	for _, e := range c.Entries {
		fmt.Fprintf(h, "%s %s %d %s\n", e.Kind, e.Path, len(e.Body), e.Key)
		h.Write(e.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCorpusDigests pins BuildCorpus's bytes at a fixed seed and size under
// the serve mix and the default mix. A change to the corpus programs, their
// profiles, the CFG exports, the request encodings or the cache key moves a
// digest, and with it what the serve benchmark replays.
func TestCorpusDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		mix  []MixItem
		want string
	}{
		{"serve", serveMix, "813152f36a19e812eb48ef90f1dfdae543087d7d26458572d940cd5c6d9f6397"},
		{"default", DefaultMix(), "6e1d52f100056b51b4d267025a6a6280c5f482d7480958af8e2af8b1fbc74769"},
	} {
		c, err := BuildCorpus(7, 64, tc.mix)
		if err != nil {
			t.Fatal(err)
		}
		if got := corpusDigest(c); got != tc.want {
			t.Errorf("%s mix: corpus digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
