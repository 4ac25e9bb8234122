package serve

import (
	"encoding/json"
	"strings"
	"testing"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRequestKeyMatchesHandlerCache pins the contract the load corpus and
// the benchmark's warm set depend on: RequestKey derives the exact key the
// handler's result cache uses, stable across calls, distinct across
// endpoints, and insensitive to JSON field order (canonicalization happens
// post-parse).
func TestRequestKeyMatchesHandlerCache(t *testing.T) {
	asmSrc := readFixture(t, "sample.asm")
	profSrc := readFixture(t, "sample.prof")
	body := mustJSON(t, map[string]any{"asm": asmSrc, "profile": profSrc})
	reordered := mustJSON(t, map[string]any{"profile": profSrc, "asm": asmSrc})

	k1, err := RequestKey("/v1/align", body)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := RequestKey("/v1/align", reordered)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("JSON field order changed the cache key")
	}
	if len(k1) != 64 || strings.Trim(k1, "0123456789abcdef") != "" {
		t.Errorf("key %q is not sha256 hex", k1)
	}

	sim, err := RequestKey("/v1/simulate", mustJSON(t, map[string]any{
		"name": "p", "asm": asmSrc, "profile": profSrc, "generator": "walk",
	}))
	if err != nil {
		t.Fatal(err)
	}
	if sim == k1 {
		t.Error("align and simulate share a cache key for similar bodies")
	}

	if _, err := RequestKey("/v1/nope", body); err == nil {
		t.Error("unknown path produced a key")
	}
	if _, err := RequestKey("/v1/align", []byte("{not json")); err == nil {
		t.Error("unparseable body produced a parsed key")
	}
}
