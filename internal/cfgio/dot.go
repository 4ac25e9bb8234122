package cfgio

import (
	"fmt"
	"strconv"
	"strings"

	"balign/internal/ir"
	"balign/internal/profile"
)

// The DOT encoding is a strict, line-oriented digraph subset: one statement
// per line, one cluster subgraph per procedure, nodes named "proc/idx". It
// renders under graphviz (kind/size/calls are harmless foreign attributes
// there) while staying simple enough to parse with exact line numbers in
// every error.
//
//	digraph "name" {
//	  graph [mem_words=1024, entry="main", instrs=12345];
//	  subgraph "cluster_main" {
//	    label="main";
//	    entry_count=7;
//	    "main/0" [kind="cond", size=3, label="loop", calls="helper"];
//	    "main/0" -> "main/1" [weight=90];
//	    "main/0" -> "main/2" [weight=10, taken=true];
//	  }
//	}

func dotErr(line int, elem, msg string, args ...any) error {
	return &Error{Format: "dot", Line: line, Offset: -1, Elem: elem, Msg: fmt.Sprintf(msg, args...)}
}

// importDOT decodes the DOT CFG encoding.
func importDOT(data []byte) (*ir.Program, *profile.Profile, error) {
	d, err := parseDOT(data)
	if err != nil {
		return nil, nil, err
	}
	return build(d)
}

// dotProcState accumulates one subgraph before block order is finalized.
type dotProcState struct {
	docProc
	nodes map[int]*docBlock // by block index
	edges []dotEdgeStmt
}

type dotEdgeStmt struct {
	from int
	edge docEdge
}

func parseDOT(data []byte) (*doc, error) {
	d := &doc{format: "dot"}
	var cur *dotProcState
	sawHeader, closed := false, false

	lines := strings.Split(string(data), "\n")
	for lineNo, raw := range lines {
		line := lineNo + 1
		text := raw
		if i := strings.Index(text, "//"); i >= 0 {
			text = text[:i]
		}
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		if closed {
			return nil, dotErr(line, "", "statement after closing brace: %q", text)
		}

		if !sawHeader {
			name, err := parseDotHeader(text, line)
			if err != nil {
				return nil, err
			}
			d.name = name
			sawHeader = true
			continue
		}

		switch {
		case text == "}":
			if cur != nil {
				dp, err := finishDotProc(cur)
				if err != nil {
					return nil, err
				}
				d.procs = append(d.procs, *dp)
				cur = nil
			} else {
				closed = true
			}

		case strings.HasPrefix(text, "graph "):
			if cur != nil {
				return nil, dotErr(line, procElem(cur.name), "graph attributes inside a subgraph")
			}
			attrs, err := parseDotAttrs(strings.TrimPrefix(text, "graph "), line, "graph attributes")
			if err != nil {
				return nil, err
			}
			for _, a := range attrs {
				switch a.key {
				case "mem_words":
					n, err := strconv.Atoi(a.val)
					if err != nil {
						return nil, dotErr(line, "graph attributes", "bad mem_words %q", a.val)
					}
					d.memWords = n
				case "entry":
					d.entry = a.val
				case "instrs":
					n, err := strconv.ParseUint(a.val, 10, 64)
					if err != nil {
						return nil, dotErr(line, "graph attributes", "bad instrs %q", a.val)
					}
					d.instrs = n
				default:
					return nil, dotErr(line, "graph attributes", "unknown attribute %q", a.key)
				}
			}

		case strings.HasPrefix(text, "subgraph "):
			if cur != nil {
				return nil, dotErr(line, procElem(cur.name), "nested subgraph")
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, "subgraph "))
			if !strings.HasSuffix(rest, "{") {
				return nil, dotErr(line, "", "subgraph line must end with '{': %q", text)
			}
			name := unquoteDot(strings.TrimSpace(strings.TrimSuffix(rest, "{")))
			const pfx = "cluster_"
			if !strings.HasPrefix(name, pfx) {
				return nil, dotErr(line, "", "subgraph name %q must start with %q", name, pfx)
			}
			cur = &dotProcState{nodes: make(map[int]*docBlock)}
			cur.name = strings.TrimPrefix(name, pfx)
			cur.line = line

		case cur != nil && strings.HasPrefix(text, "label"):
			val, err := parseDotAssign(text, "label", line, procElem(cur.name))
			if err != nil {
				return nil, err
			}
			if val != cur.name {
				return nil, dotErr(line, procElem(cur.name), "subgraph label %q does not match cluster name", val)
			}

		case cur != nil && strings.HasPrefix(text, "entry_count"):
			val, err := parseDotAssign(text, "entry_count", line, procElem(cur.name))
			if err != nil {
				return nil, err
			}
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, dotErr(line, procElem(cur.name), "bad entry_count %q", val)
			}
			cur.entryCount = n

		case cur != nil:
			if err := parseDotNodeOrEdge(cur, text, line); err != nil {
				return nil, err
			}

		default:
			return nil, dotErr(line, "", "statement outside a subgraph: %q", text)
		}
	}
	if !sawHeader {
		return nil, dotErr(len(lines), "", "missing digraph header")
	}
	if cur != nil {
		return nil, dotErr(len(lines), procElem(cur.name), "unterminated subgraph")
	}
	if !closed {
		return nil, dotErr(len(lines), "", "missing closing brace")
	}
	return d, nil
}

func parseDotHeader(text string, line int) (string, error) {
	if !strings.HasPrefix(text, "digraph") || !strings.HasSuffix(text, "{") {
		return "", dotErr(line, "", "expected `digraph \"name\" {`, got %q", text)
	}
	name := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(text, "digraph"), "{"))
	return unquoteDot(name), nil
}

// parseDotAssign parses `key = value ;` (spaces optional).
func parseDotAssign(text, key string, line int, elem string) (string, error) {
	rest := strings.TrimPrefix(text, key)
	rest = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), ";"))
	if !strings.HasPrefix(rest, "=") {
		return "", dotErr(line, elem, "expected %s=value, got %q", key, text)
	}
	return unquoteDot(strings.TrimSpace(strings.TrimPrefix(rest, "="))), nil
}

// parseDotNodeOrEdge handles `"p/i" [attrs];` and `"p/i" -> "p/j" [attrs];`.
func parseDotNodeOrEdge(cur *dotProcState, text string, line int) error {
	pe := procElem(cur.name)
	stmt := strings.TrimSpace(strings.TrimSuffix(text, ";"))

	// Split off a trailing [attrs] list if present.
	attrText := ""
	if i := strings.IndexByte(stmt, '['); i >= 0 {
		if !strings.HasSuffix(stmt, "]") {
			return dotErr(line, pe, "unterminated attribute list: %q", text)
		}
		attrText = stmt[i:]
		stmt = strings.TrimSpace(stmt[:i])
	}

	if from, to, isEdge := splitDotArrow(stmt); isEdge {
		fi, err := parseDotNodeID(from, cur.name, line)
		if err != nil {
			return err
		}
		ti, err := parseDotNodeID(to, cur.name, line)
		if err != nil {
			return err
		}
		e := docEdge{to: ti, line: line}
		if attrText != "" {
			attrs, err := parseDotAttrs(attrText, line, edgeElem(cur.name, fi, ti))
			if err != nil {
				return err
			}
			for _, a := range attrs {
				switch a.key {
				case "weight":
					w, err := strconv.ParseUint(a.val, 10, 64)
					if err != nil {
						return dotErr(line, edgeElem(cur.name, fi, ti), "bad weight %q", a.val)
					}
					e.weight = w
				case "taken":
					b, err := strconv.ParseBool(a.val)
					if err != nil {
						return dotErr(line, edgeElem(cur.name, fi, ti), "bad taken %q", a.val)
					}
					e.taken = b
				default:
					return dotErr(line, edgeElem(cur.name, fi, ti), "unknown attribute %q", a.key)
				}
			}
		}
		cur.edges = append(cur.edges, dotEdgeStmt{from: fi, edge: e})
		return nil
	}

	// Node statement.
	idx, err := parseDotNodeID(stmt, cur.name, line)
	if err != nil {
		return err
	}
	be := blockElem(cur.name, idx)
	if _, dup := cur.nodes[idx]; dup {
		return dotErr(line, be, "duplicate node")
	}
	// size -1 marks "attribute not seen": explicit size=0 is legal (an empty
	// fall-through block, as the aligner leaves behind when it removes a
	// jump), so 0 cannot double as the missing-value sentinel.
	db := &docBlock{line: line, size: -1}
	if attrText != "" {
		attrs, err := parseDotAttrs(attrText, line, be)
		if err != nil {
			return err
		}
		for _, a := range attrs {
			switch a.key {
			case "kind":
				db.kind = a.val
			case "size":
				n, err := strconv.Atoi(a.val)
				if err != nil || n < 0 {
					return dotErr(line, be, "bad size %q", a.val)
				}
				db.size = n
			case "label":
				db.label = a.val
			case "calls":
				for _, c := range strings.Split(a.val, ",") {
					if c = strings.TrimSpace(c); c != "" {
						db.calls = append(db.calls, c)
					}
				}
			default:
				return dotErr(line, be, "unknown attribute %q", a.key)
			}
		}
	}
	if db.kind == "" {
		return dotErr(line, be, "node is missing the kind attribute")
	}
	if db.size < 0 {
		return dotErr(line, be, "node is missing the size attribute")
	}
	cur.nodes[idx] = db
	return nil
}

// splitDotArrow splits an edge statement on its top-level "->".
func splitDotArrow(stmt string) (from, to string, ok bool) {
	depth := false // inside quotes
	for i := 0; i+1 < len(stmt); i++ {
		if stmt[i] == '"' {
			depth = !depth
		}
		if !depth && stmt[i] == '-' && stmt[i+1] == '>' {
			return strings.TrimSpace(stmt[:i]), strings.TrimSpace(stmt[i+2:]), true
		}
	}
	return "", "", false
}

// parseDotNodeID parses `"proc/idx"` (quotes optional) and checks the proc
// part against the enclosing subgraph.
func parseDotNodeID(s, proc string, line int) (int, error) {
	id := unquoteDot(s)
	slash := strings.LastIndexByte(id, '/')
	if slash < 0 {
		return 0, dotErr(line, procElem(proc), "node id %q is not of the form \"proc/idx\"", id)
	}
	if id[:slash] != proc {
		return 0, dotErr(line, procElem(proc), "node id %q names a different procedure than its subgraph", id)
	}
	idx, err := strconv.Atoi(id[slash+1:])
	if err != nil || idx < 0 {
		return 0, dotErr(line, procElem(proc), "bad block index in node id %q", id)
	}
	return idx, nil
}

type dotAttr struct {
	key, val string
}

// parseDotAttrs parses `[k=v, k2="v2"]`, honouring quotes in values.
func parseDotAttrs(s string, line int, elem string) ([]dotAttr, error) {
	s = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(s), ";"))
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, dotErr(line, elem, "expected bracketed attribute list, got %q", s)
	}
	s = s[1 : len(s)-1]

	var parts []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inQuote = !inQuote
		case ',':
			if !inQuote {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if inQuote {
		return nil, dotErr(line, elem, "unterminated quote in attribute list")
	}
	parts = append(parts, s[start:])

	var out []dotAttr
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		eq := strings.IndexByte(p, '=')
		if eq < 0 {
			return nil, dotErr(line, elem, "attribute %q is not of the form key=value", p)
		}
		out = append(out, dotAttr{
			key: strings.TrimSpace(p[:eq]),
			val: unquoteDot(strings.TrimSpace(p[eq+1:])),
		})
	}
	return out, nil
}

func unquoteDot(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

func quoteDot(s string) string { return `"` + s + `"` }

// finishDotProc checks node-index density and assembles the blocks with
// their edges in file order.
func finishDotProc(cur *dotProcState) (*docProc, error) {
	n := len(cur.nodes)
	for idx := 0; idx < n; idx++ {
		if _, ok := cur.nodes[idx]; !ok {
			return nil, dotErr(cur.line, procElem(cur.name),
				"block indices not dense: %d nodes declared but index %d missing", n, idx)
		}
	}
	if n == 0 {
		return nil, dotErr(cur.line, procElem(cur.name), "procedure has no blocks")
	}
	for _, es := range cur.edges {
		if es.from >= n {
			return nil, dotErr(es.edge.line, procElem(cur.name),
				"edge from undeclared block %d", es.from)
		}
		cur.nodes[es.from].edges = append(cur.nodes[es.from].edges, es.edge)
	}
	dp := cur.docProc
	for idx := 0; idx < n; idx++ {
		dp.blocks = append(dp.blocks, *cur.nodes[idx])
	}
	return &dp, nil
}

// ExportDOT renders prog and its profile as the canonical DOT document:
// one cluster per procedure, node line then edge lines per block, stable
// attribute order, trailing newline. Re-importing the output reproduces the
// program and profile, and re-exports byte-identically.
func ExportDOT(prog *ir.Program, pf *profile.Profile) ([]byte, error) {
	d, err := docFromProgram(prog, pf)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %s {\n", quoteDot(d.name))
	fmt.Fprintf(&sb, "  graph [mem_words=%d, entry=%s, instrs=%d];\n", d.memWords, quoteDot(d.entry), d.instrs)
	for _, dp := range d.procs {
		fmt.Fprintf(&sb, "  subgraph %s {\n", quoteDot("cluster_"+dp.name))
		fmt.Fprintf(&sb, "    label=%s;\n", quoteDot(dp.name))
		fmt.Fprintf(&sb, "    entry_count=%d;\n", dp.entryCount)
		for bi, db := range dp.blocks {
			id := quoteDot(fmt.Sprintf("%s/%d", dp.name, bi))
			fmt.Fprintf(&sb, "    %s [kind=%s, size=%d, label=%s", id, quoteDot(db.kind), db.size, quoteDot(db.label))
			if len(db.calls) > 0 {
				fmt.Fprintf(&sb, ", calls=%s", quoteDot(strings.Join(db.calls, ",")))
			}
			sb.WriteString("];\n")
			for _, e := range db.edges {
				fmt.Fprintf(&sb, "    %s -> %s [weight=%d", id, quoteDot(fmt.Sprintf("%s/%d", dp.name, e.to)), e.weight)
				if e.taken {
					sb.WriteString(", taken=true")
				}
				sb.WriteString("];\n")
			}
		}
		sb.WriteString("  }\n")
	}
	sb.WriteString("}\n")
	return []byte(sb.String()), nil
}
