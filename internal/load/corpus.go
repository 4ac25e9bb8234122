package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"balign/internal/asm"
	"balign/internal/cfgio"
	"balign/internal/serve"
	"balign/internal/workload"
)

// Request-kind names: the five request encodings balignd accepts, which
// the mix distributes traffic over.
const (
	KindAlignAsm     = "align-asm"       // /v1/align, asm + profile texts
	KindAlignCFGJSON = "align-cfg-json"  // /v1/align, combined CFG JSON doc
	KindAlignCFGDOT  = "align-cfg-dot"   // /v1/align, combined CFG DOT doc
	KindSimInline    = "simulate-inline" // /v1/simulate, inline walk
	KindSimSuite     = "simulate-suite"  // /v1/simulate, named suite program
)

// MixItem weights one request kind in the corpus.
type MixItem struct {
	Kind   string `json:"kind"`
	Weight int    `json:"weight"`
}

// DefaultMix skews toward align traffic (the cheap, cacheable hot path)
// with a simulate tail — the realistic shape for an alignment service,
// not a synthetic no-op mix.
func DefaultMix() []MixItem {
	return []MixItem{
		{KindAlignAsm, 40},
		{KindAlignCFGJSON, 15},
		{KindAlignCFGDOT, 15},
		{KindSimInline, 20},
		{KindSimSuite, 10},
	}
}

// ParseMix reads a "kind=weight,kind=weight" flag value.
func ParseMix(spec string) ([]MixItem, error) {
	if spec == "" {
		return DefaultMix(), nil
	}
	known := map[string]bool{
		KindAlignAsm: true, KindAlignCFGJSON: true, KindAlignCFGDOT: true,
		KindSimInline: true, KindSimSuite: true,
	}
	var mix []MixItem
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("mix entry %q is not kind=weight", part)
		}
		if !known[kv[0]] {
			return nil, fmt.Errorf("unknown request kind %q (known: %s, %s, %s, %s, %s)",
				kv[0], KindAlignAsm, KindAlignCFGDOT, KindAlignCFGJSON, KindSimInline, KindSimSuite)
		}
		var w int
		if _, err := fmt.Sscanf(kv[1], "%d", &w); err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q has a bad weight", part)
		}
		mix = append(mix, MixItem{kv[0], w})
	}
	return mix, nil
}

// Entry is one concrete request in the corpus: an endpoint path, the exact
// body bytes, and the cache key balignd will derive for it.
type Entry struct {
	Kind string
	Path string
	Body []byte
	Key  string
}

// Corpus is a seeded deterministic request set. Building it twice with the
// same (seed, size, mix) yields byte-identical entries.
type Corpus struct {
	Seed    int64
	Entries []Entry
}

// splitmix64 is the corpus and plan PRNG: a pure function of its input, so
// every per-request decision derives from (seed, index) alone.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// corpusProgramAsm renders one parameterized corpus program: the
// serve-fixture shape (a skewed hot loop with a removable detour) with the
// loop bound, skew mask and detour increment varied per entry so distinct
// entries have distinct cache keys and genuinely different alignment work.
func corpusProgramAsm(name string, bound, mask, inc int) string {
	return fmt.Sprintf(`; baload corpus program %s (bound %d, mask %d, inc %d)
mem 64
entry main

proc main
    li r1, %d
loop:
    addi r2, r2, 1
    andi r3, r2, %d
    bnez r3, common
    addi r4, r4, %d
    br join
common:
    addi r5, r5, 2
join:
    addi r1, r1, -1
    bnez r1, loop
    halt
endproc
`, name, bound, mask, inc, bound, mask, inc)
}

// buildProgram assembles one corpus program and collects its exact edge
// profile with the experiment grid's VM training run, so the profile is
// always flow-conserved and CFG exports validate.
func buildProgram(name string, rng uint64) (asmText, profText string, cfgJSON, cfgDOT []byte, err error) {
	bound := 100 + int(rng%256)
	mask := []int{1, 3, 7, 15}[(rng>>8)%4]
	inc := 1 + int((rng>>16)%3)
	asmText = corpusProgramAsm(name, bound, mask, inc)
	prog, err := asm.Assemble(asmText)
	if err != nil {
		return "", "", nil, nil, fmt.Errorf("corpus program %s: %w", name, err)
	}
	pf, _, err := workload.FromProgram(name, prog, nil, 1<<20).CollectProfile()
	if err != nil {
		return "", "", nil, nil, fmt.Errorf("profiling corpus program %s: %w", name, err)
	}
	var buf bytes.Buffer
	if _, err := pf.WriteTo(&buf); err != nil {
		return "", "", nil, nil, err
	}
	profText = buf.String()
	if cfgJSON, err = cfgio.ExportJSON(prog, pf); err != nil {
		return "", "", nil, nil, fmt.Errorf("exporting corpus program %s: %w", name, err)
	}
	if cfgDOT, err = cfgio.ExportDOT(prog, pf); err != nil {
		return "", "", nil, nil, fmt.Errorf("exporting corpus program %s: %w", name, err)
	}
	return asmText, profText, cfgJSON, cfgDOT, nil
}

// mixSequence interleaves the kinds by smooth weighted round-robin, so any
// prefix of the corpus — even one smaller than the weight total — carries
// every kind in roughly mix proportion.
func mixSequence(mix []MixItem, n int) ([]string, error) {
	total := 0
	for _, m := range mix {
		total += m.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("mix has zero total weight")
	}
	cur := make([]int, len(mix))
	out := make([]string, n)
	for i := 0; i < n; i++ {
		best := -1
		for j, m := range mix {
			if m.Weight == 0 {
				continue
			}
			cur[j] += m.Weight
			if best < 0 || cur[j] > cur[best] {
				best = j
			}
		}
		cur[best] -= total
		out[i] = mix[best].Kind
	}
	return out, nil
}

// BuildCorpus generates size entries distributed over the mix weights, each
// parameterized from splitmix64(seed, i). Every entry's body is validated
// through the serve parsers by deriving its cache key.
func BuildCorpus(seed int64, size int, mix []MixItem) (*Corpus, error) {
	if size <= 0 {
		return nil, fmt.Errorf("corpus size must be positive, got %d", size)
	}
	if len(mix) == 0 {
		mix = DefaultMix()
	}
	kindSeq, err := mixSequence(mix, size)
	if err != nil {
		return nil, err
	}
	c := &Corpus{Seed: seed, Entries: make([]Entry, 0, size)}
	for i := 0; i < size; i++ {
		kind := kindSeq[i]
		rng := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i))
		name := fmt.Sprintf("c%04d", i)
		entry, err := buildEntry(kind, name, rng)
		if err != nil {
			return nil, err
		}
		key, err := serve.RequestKey(entry.Path, entry.Body)
		if err != nil {
			return nil, fmt.Errorf("corpus entry %d (%s) does not parse: %w", i, kind, err)
		}
		entry.Key = key
		c.Entries = append(c.Entries, entry)
	}
	return c, nil
}

// buildEntry renders one request body for its kind.
func buildEntry(kind, name string, rng uint64) (Entry, error) {
	marshal := func(path string, req map[string]any) (Entry, error) {
		body, err := json.Marshal(req) // map keys marshal sorted: deterministic
		if err != nil {
			return Entry{}, err
		}
		return Entry{Kind: kind, Path: path, Body: body}, nil
	}
	switch kind {
	case KindSimSuite:
		// Seed variation keeps suite entries from collapsing onto one
		// cache key; the tiny scale bounds the per-request grid work.
		return marshal("/v1/simulate", map[string]any{
			"programs": []string{"ora"},
			"scale":    0.02,
			"seed":     int64(rng % 64),
		})
	case KindSimInline:
		asmText, profText, _, _, err := buildProgram(name, rng)
		if err != nil {
			return Entry{}, err
		}
		return marshal("/v1/simulate", map[string]any{
			"name":       name,
			"asm":        asmText,
			"profile":    profText,
			"generator":  "walk",
			"max_instrs": 16384,
			"seed":       int64(rng % 1024),
		})
	case KindAlignAsm, KindAlignCFGJSON, KindAlignCFGDOT:
		asmText, profText, cfgJSON, cfgDOT, err := buildProgram(name, rng)
		if err != nil {
			return Entry{}, err
		}
		switch kind {
		case KindAlignCFGJSON:
			return marshal("/v1/align", map[string]any{"cfg": string(cfgJSON)})
		case KindAlignCFGDOT:
			return marshal("/v1/align", map[string]any{"cfg": string(cfgDOT)})
		default:
			return marshal("/v1/align", map[string]any{
				"name": name, "asm": asmText, "profile": profText,
			})
		}
	default:
		return Entry{}, fmt.Errorf("unknown corpus kind %q", kind)
	}
}

// Plan assigns n requests onto corpus entries: picks[i] is a pure function
// of (corpus seed, i), and hits[i] reports whether an earlier request
// already picked the same entry — whether a daemon that caches every
// result answers request i from its cache (the first request for a key
// computes, repeats hit the result cache).
func (c *Corpus) Plan(n int) (picks []int, hits []bool) {
	picks = make([]int, n)
	hits = make([]bool, n)
	seen := make([]bool, len(c.Entries))
	for i := 0; i < n; i++ {
		p := int(splitmix64(uint64(c.Seed)^0xc0ffee+uint64(i)*0x2545f4914f6cdd1d) % uint64(len(c.Entries)))
		picks[i] = p
		hits[i] = seen[p]
		seen[p] = true
	}
	return picks, hits
}
