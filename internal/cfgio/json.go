package cfgio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"balign/internal/ir"
	"balign/internal/profile"
)

// Wire shapes of the JSON encoding. Field order here is the canonical
// export order.
type jsonDoc struct {
	Name     string     `json:"name,omitempty"`
	MemWords int        `json:"mem_words,omitempty"`
	Entry    string     `json:"entry,omitempty"`
	Instrs   uint64     `json:"instrs,omitempty"`
	Procs    []jsonProc `json:"procs"`
}

type jsonProc struct {
	Name       string      `json:"name"`
	EntryCount uint64      `json:"entry_count,omitempty"`
	Blocks     []jsonBlock `json:"blocks"`
}

type jsonBlock struct {
	Label string     `json:"label,omitempty"`
	Size  int        `json:"size"`
	Kind  string     `json:"kind"`
	Calls []string   `json:"calls,omitempty"`
	Edges []jsonEdge `json:"edges,omitempty"`
}

type jsonEdge struct {
	To     int    `json:"to"`
	Weight uint64 `json:"weight"`
	Taken  bool   `json:"taken,omitempty"`
}

// importJSON decodes the JSON CFG encoding.
func importJSON(data []byte) (*ir.Program, *profile.Profile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var jd jsonDoc
	if err := dec.Decode(&jd); err != nil {
		return nil, nil, jsonError(data, dec, err)
	}
	// Reject trailing garbage after the document object.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, nil, jsonError(data, dec, errors.New("trailing data after CFG document"))
	}

	d := &doc{
		format:   "json",
		name:     jd.Name,
		memWords: jd.MemWords,
		entry:    jd.Entry,
		instrs:   jd.Instrs,
	}
	for _, jp := range jd.Procs {
		dp := docProc{name: jp.Name, entryCount: jp.EntryCount}
		for _, jb := range jp.Blocks {
			db := docBlock{label: jb.Label, size: jb.Size, kind: jb.Kind, calls: jb.Calls}
			for _, je := range jb.Edges {
				db.edges = append(db.edges, docEdge{to: je.To, weight: je.Weight, taken: je.Taken})
			}
			dp.blocks = append(dp.blocks, db)
		}
		d.procs = append(d.procs, dp)
	}
	return build(d)
}

// jsonError wraps a JSON decode failure with the byte offset where decoding
// stopped and the 1-based line it falls on.
func jsonError(data []byte, dec *json.Decoder, err error) error {
	off := dec.InputOffset()
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		off = syn.Offset
	case errors.As(err, &typ):
		off = typ.Offset
	}
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	line := 1 + bytes.Count(data[:off], []byte{'\n'})
	elem := ""
	if typ != nil && typ.Field != "" {
		elem = fmt.Sprintf("field %q", typ.Field)
	}
	return &Error{Format: "json", Line: line, Offset: off, Elem: elem, Msg: err.Error()}
}

// ExportJSON renders prog and its profile as the canonical JSON document:
// two-space indentation, procedures and blocks in program order, every block
// labelled, edges fall-before-taken then by target, trailing newline.
// Re-importing the output reproduces the program and profile, and re-exports
// byte-identically.
func ExportJSON(prog *ir.Program, pf *profile.Profile) ([]byte, error) {
	d, err := docFromProgram(prog, pf)
	if err != nil {
		return nil, err
	}
	jd := jsonDoc{
		Name:     d.name,
		MemWords: d.memWords,
		Entry:    d.entry,
		Instrs:   d.instrs,
	}
	for _, dp := range d.procs {
		jp := jsonProc{Name: dp.name, EntryCount: dp.entryCount}
		for _, db := range dp.blocks {
			jb := jsonBlock{Label: db.label, Size: db.size, Kind: db.kind, Calls: db.calls}
			for _, e := range db.edges {
				jb.Edges = append(jb.Edges, jsonEdge{To: e.to, Weight: e.weight, Taken: e.taken})
			}
			jp.Blocks = append(jp.Blocks, jb)
		}
		jd.Procs = append(jd.Procs, jp)
	}
	out, err := json.MarshalIndent(&jd, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("cfgio: export: %w", err)
	}
	return append(out, '\n'), nil
}
