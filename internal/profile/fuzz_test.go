package profile

import (
	"bytes"
	"testing"
)

// FuzzRead feeds arbitrary text to Read, the parser behind the profile
// field of both POST endpoints (/v1/align and /v1/simulate). Read must
// never panic, and any profile it accepts must serialize to a fixpoint:
// writing it, reading that back and writing again reproduces the first
// write byte for byte.
func FuzzRead(f *testing.F) {
	pf := New("prog")
	pf.Instrs = 12345
	main := pf.Proc("main")
	main.EntryCount = 3
	main.Edges[Edge{0, 1}] = 10
	main.Edges[Edge{1, 1}] = 99
	main.Branches[1] = BranchCount{Taken: 99, Fall: 10}
	pf.Proc("zeta").Edges[Edge{2, 0}] = 1
	var written bytes.Buffer
	if _, err := pf.WriteTo(&written); err != nil {
		f.Fatal(err)
	}
	f.Add(written.Bytes())
	// Block ids that are negative or wrap ir.BlockID once panicked the
	// aligner downstream of Read.
	f.Add([]byte("proc m\nbranch -7 1 1\n"))
	f.Add([]byte("proc m\nedge -3 -4 7\n"))
	f.Add([]byte("proc m\nedge 4294967297 4294967298 9\n"))

	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if _, err := p.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		q, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Read rejects WriteTo's output: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if _, err := q.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("serialization is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", first.Bytes(), second.Bytes())
		}
	})
}
