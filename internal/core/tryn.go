package core

import (
	"math"
	"sort"

	"balign/internal/cost"
	"balign/internal/ir"
	"balign/internal/profile"
)

// tryChoice is one alignment possibility for a node, mirroring the paper:
// single-exit nodes try {fall-through, taken+jump}; conditionals try each
// outgoing edge as the fall-through and also neither.
type tryChoice uint8

const (
	chooseFallF   tryChoice = iota // keep the fall edge as fall-through (cond)
	chooseFallT                    // make the taken edge the fall-through (cond, inverts)
	chooseNeither                  // align neither edge: conditional + jump
	chooseLink                     // single-exit: successor becomes fall-through
	chooseJump                     // single-exit: reach successor by jump
)

// tryNode is a node participating in one TryN window.
type tryNode struct {
	info    *nodeInfo
	model   cost.Model
	choices []tryChoice
	// fallback is the cost charged when a link choice turns out infeasible
	// in the tentative chain state (target already claimed, cycle, ...).
	fallback float64
	// weight orders nodes within the window (hottest first).
	weight uint64
}

// linkTarget returns the chain-link destination of a choice, or NoBlock for
// non-linking choices.
func (n *tryNode) linkTarget(ch tryChoice) ir.BlockID {
	switch ch {
	case chooseFallF:
		return n.info.f
	case chooseFallT:
		return n.info.t
	case chooseLink:
		return n.info.t
	default:
		return ir.NoBlock
	}
}

// tryNLayout implements the paper's Try15 heuristic with a configurable
// window, refined with one round of placement feedback: the paper notes
// that when forming chains "it is not known where the taken branch will be
// located in the final procedure", so a first pass commits a layout, and a
// second pass repeats the search using the first pass's block positions as
// the backward/forward estimates. The second pass can only change decisions
// whose placement guesses were wrong.
func tryNLayout(p *ir.Proc, pp *profile.ProcProfile, opts Options) ([]ir.BlockID, map[ir.BlockID]bool) {
	layout, _ := tryNOnce(p, pp, opts, nil)
	pos := make([]int, len(p.Blocks))
	for i, b := range layout {
		pos[b] = i
	}
	return tryNOnce(p, pp, opts, pos)
}

// tryNOnce is one TryN pass: take the N hottest not-yet-decided edges
// (weight ≥ MinWeight), gather their source nodes, and commit the
// cheapest combination of the nodes' alignment choices under the cost
// model. Nodes that share chains or targets are searched jointly;
// independent nodes are optimized separately (an exact decomposition that
// keeps the search tractable). Remaining cold edges are linked greedily.
func tryNOnce(p *ir.Proc, pp *profile.ProcProfile, opts Options, posHint []int) ([]ir.BlockID, map[ir.BlockID]bool) {
	m := opts.Model
	c := newChains(p)
	infos := buildNodeInfos(p, pp)
	if posHint != nil {
		for i := range infos {
			infos[i].posHint = posHint
		}
	}
	edges := alignableEdges(p, pp.Weight, opts.minWeight())

	decided := make(map[ir.BlockID]bool)
	forceJump := make(map[ir.BlockID]bool)
	search := &windowSearch{c: c}

	i := 0
	for i < len(edges) {
		// Collect the next window of edges whose sources are undecided.
		var nodes []*tryNode
		nodeSet := make(map[ir.BlockID]*tryNode)
		taken := 0
		for i < len(edges) && taken < opts.window() {
			e := edges[i]
			i++
			if decided[e.from] || !infos[e.from].valid {
				continue
			}
			taken++
			if nodeSet[e.from] != nil {
				continue
			}
			tn := makeTryNode(&infos[e.from], m)
			nodeSet[e.from] = tn
			nodes = append(nodes, tn)
		}
		if len(nodes) == 0 {
			continue
		}
		sort.SliceStable(nodes, func(a, b int) bool {
			if nodes[a].weight != nodes[b].weight {
				return nodes[a].weight > nodes[b].weight
			}
			return nodes[a].info.id < nodes[b].info.id
		})

		for _, cluster := range clusterNodes(c, nodes) {
			commitBest(search, cluster, forceJump, opts.maxCombos())
		}
		for _, n := range nodes {
			decided[n.info.id] = true
		}
	}

	opts.Obs.Add("core.plan.tryn.combos", search.combos)
	opts.Obs.Add("core.plan.tryn.space", search.space)
	finishLinks(c, p, pp, forceJump)

	// Loop-trick check for conditionals that ended up without a committed
	// fall-through and were not part of any window (cold or skipped).
	for idx := range infos {
		ni := &infos[idx]
		if !ni.valid || !ni.isCond || decided[ni.id] || c.next[ni.id] != ir.NoBlock {
			continue
		}
		if ni.neitherCost(m) < ni.alignCost(m, ni.f) {
			forceJump[ni.id] = true
		}
	}
	return orderChains(c, pp, opts.Order), forceJump
}

// makeTryNode enumerates the node's choices.
func makeTryNode(ni *nodeInfo, m cost.Model) *tryNode {
	tn := &tryNode{info: ni, model: m, weight: ni.wT + ni.wF}
	if ni.isCond {
		tn.fallback = ni.neitherCost(m)
		tn.choices = append(tn.choices, chooseFallF)
		if ni.t != ni.f {
			tn.choices = append(tn.choices, chooseFallT)
		}
		tn.choices = append(tn.choices, chooseNeither)
	} else {
		tn.fallback = ni.jumpCost(m)
		tn.choices = append(tn.choices, chooseLink, chooseJump)
	}
	return tn
}

// chainBackward reports whether target will lie before (or at) the node in
// the final layout: certain when target is threaded earlier in the node's
// own chain; certainly forward when threaded later; otherwise the node's
// dominance/position estimate decides.
func chainBackward(c *chains, ni *nodeInfo, target ir.BlockID) bool {
	src := ni.id
	if src == target {
		return true
	}
	for cur := c.prev[src]; cur != ir.NoBlock; cur = c.prev[cur] {
		if cur == target {
			return true
		}
	}
	// If target is in the same chain but after src, it is certainly forward.
	for cur := c.next[src]; cur != ir.NoBlock; cur = c.next[cur] {
		if cur == target {
			return false
		}
	}
	return ni.backTo(target)
}

// clusterNodes partitions window nodes into groups that can be optimized
// independently: two nodes interact only if their sources or candidate link
// targets currently share a chain or name the same block. Keys are chain
// roots, so disjoint clusters touch disjoint chains and their link
// feasibilities cannot affect each other.
func clusterNodes(c *chains, nodes []*tryNode) [][]*tryNode {
	parent := make([]int, len(nodes))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	keyOwner := make(map[int32]int)
	for idx, n := range nodes {
		keys := []int32{c.findNoCompress(n.info.id)}
		for _, ch := range n.choices {
			if t := n.linkTarget(ch); t != ir.NoBlock {
				keys = append(keys, c.findNoCompress(t))
			}
		}
		for _, k := range keys {
			if prev, ok := keyOwner[k]; ok {
				union(prev, idx)
			} else {
				keyOwner[k] = idx
			}
		}
	}

	groups := make(map[int][]*tryNode)
	var order []int
	for idx, n := range nodes {
		r := find(idx)
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], n)
	}
	out := make([][]*tryNode, 0, len(order))
	for _, r := range order {
		out = append(out, groups[r])
	}
	return out
}

// commitBest finds the cheapest choice combination of one cluster against
// the live chain state and commits it. Clusters whose combination count
// exceeds maxCombos are split into sequential sub-clusters.
func commitBest(s *windowSearch, cluster []*tryNode, forceJump map[ir.BlockID]bool, maxCombos int) {
	c := s.c
	for len(cluster) > 0 {
		// Take the longest prefix whose combination count fits the budget.
		n := 0
		combos := 1
		for n < len(cluster) {
			next := combos * len(cluster[n].choices)
			if n > 0 && next > maxCombos {
				break
			}
			combos = next
			n++
		}
		sub := cluster[:n]
		cluster = cluster[n:]
		s.space += int64(combos)
		best := s.search(sub)

		// Commit the winning combination for real. A conditional whose
		// winning choice did not materialize as a link (an explicit
		// Neither, or a link that is infeasible — e.g. a self loop) is
		// realized as "align neither edge" whenever that beats the natural
		// fall-through, matching how the search priced it.
		for idx, n := range sub {
			ch := n.choices[best[idx]]
			linked := false
			if t := n.linkTarget(ch); t != ir.NoBlock && t != n.info.id && c.canLink(n.info.id, t) {
				c.link(n.info.id, t)
				linked = true
			}
			if !linked && n.info.isCond &&
				n.info.neitherCost(n.model) < n.info.alignCost(n.model, n.info.f) {
				forceJump[n.info.id] = true
			}
		}
	}
}

// maxChoices bounds a node's alignment choices: a conditional tries each
// edge as the fall-through and neither.
const maxChoices = 3

// choicePrice is one row of the search's price table. A choice costs
// unlinked when it makes no link or its link is infeasible in the
// tentative chain state (target already claimed, cycle, self loop, ...),
// and fwd or bwd when linked, as its taken target lies after the node or
// at or before it. Only BT/FNT tells fwd and bwd apart.
type choicePrice struct {
	target   ir.BlockID // link destination, NoBlock for Neither and Jump
	taken    ir.BlockID // the taken target once linked: decides fwd or bwd
	unlinked float64
	fwd, bwd float64
}

// searchNode is one node's state in a window search.
type searchNode struct {
	tn     *tryNode
	prices [maxChoices]choicePrice // indexed like tn.choices
	min    float64                 // cheapest price of any choice, linked or not
	cur    int                     // the choice on the current search path
	linked bool                    // whether cur's link is tentatively applied
	undo   undoRecord
}

// priceNode fills a node's price table with the model calls the node's
// choices are priced by.
func priceNode(tn *tryNode) searchNode {
	sn := searchNode{tn: tn, min: math.Inf(1)}
	ni, m := tn.info, tn.model
	for k, ch := range tn.choices {
		p := choicePrice{target: tn.linkTarget(ch), unlinked: tn.fallback}
		switch ch {
		case chooseFallF:
			p.taken = ni.t
			p.fwd, p.bwd = m.CondBranch(ni.wF, ni.wT, false), m.CondBranch(ni.wF, ni.wT, true)
		case chooseFallT:
			p.taken = ni.f
			p.fwd, p.bwd = m.CondBranch(ni.wT, ni.wF, false), m.CondBranch(ni.wT, ni.wF, true)
		case chooseNeither:
			p.unlinked = ni.neitherCost(m)
			p.fwd, p.bwd = p.unlinked, p.unlinked
		case chooseLink:
			// Linked, the successor falls through and costs nothing.
		case chooseJump:
			p.unlinked = ni.jumpCost(m)
			p.fwd, p.bwd = p.unlinked, p.unlinked
		}
		sn.prices[k] = p
		sn.min = math.Min(sn.min, math.Min(p.unlinked, math.Min(p.fwd, p.bwd)))
	}
	return sn
}

// price is the current choice's cost in the live chain state. A linked
// conditional asks the chains where its taken target lies — a target
// threaded earlier in the node's own chain is certainly backward — which
// is what lets TryN discover where to break a loop, the capability the
// paper credits for Try15 beating Greedy and Cost.
func (sn *searchNode) price(c *chains) float64 {
	p := &sn.prices[sn.cur]
	switch {
	case !sn.linked:
		return p.unlinked
	case p.fwd == p.bwd:
		return p.fwd
	case chainBackward(c, sn.tn.info, p.taken):
		return p.bwd
	default:
		return p.fwd
	}
}

// floor is a lower bound on price under every completion of the current
// path: exact, except that a linked conditional whose direction matters
// counts its cheaper direction, since later links can still move its
// taken target.
func (sn *searchNode) floor() float64 {
	p := &sn.prices[sn.cur]
	if !sn.linked {
		return p.unlinked
	}
	return math.Min(p.fwd, p.bwd)
}

// windowSearch finds the cheapest choice combination of a sub-cluster:
// the combination an odometer over every combination (last node fastest)
// would keep, applying each combination's links in node order and pricing
// every node against the resulting chain state, with the first of equally
// cheap combinations winning. It gets there without the odometer's work:
//
//   - The search is depth first over the nodes in order, trying each
//     node's choices in order, so it reaches the combinations in the
//     odometer's order, and keeping the first strict minimum keeps the
//     odometer's winner.
//   - A node's link is applied once for its whole subtree and undone on
//     the way back. Whether it is feasible depends only on the nodes
//     before it, just as when a combination's links are applied in node
//     order, so every leaf sees exactly the chain state that combination
//     builds.
//   - Prices come from a table filled once per node; a leaf sums them in
//     node order, so its float total is the one the odometer computes.
//   - Once a winner exists, a subtree whose lower bound is not below the
//     winner's cost is skipped. The bound is a left-to-right sum in node
//     order of per-node lower bounds: floor for the nodes on the path,
//     min for the rest. IEEE-754 round-to-nearest addition is monotone in
//     each operand, so each partial sum of the bound is at most the same
//     partial sum of any leaf below, and every leaf in a skipped subtree
//     totals at least the winner's cost: under the strict < it could not
//     have won, and on ties the first winner stays.
//
// The search allocates nothing per combination; its slices are reused
// across sub-clusters.
type windowSearch struct {
	c        *chains
	nodes    []searchNode
	best     []int
	bestCost float64
	// combos counts the combinations priced; space counts every
	// combination of the searched sub-clusters.
	combos, space int64
}

// search returns the index (into each node's choices) of sub's winning
// combination. The slice is reused by the next search.
func (s *windowSearch) search(sub []*tryNode) []int {
	if cap(s.nodes) < len(sub) {
		s.nodes = make([]searchNode, len(sub))
		s.best = make([]int, len(sub))
	}
	s.nodes, s.best = s.nodes[:len(sub)], s.best[:len(sub)]
	for i, tn := range sub {
		s.nodes[i] = priceNode(tn)
	}
	// Prices are finite, so the first combination wins against +Inf, as
	// it does in the odometer.
	s.bestCost = math.Inf(1)
	s.visit(0)
	return s.best
}

// visit tries node d's choices in order, each with its link tentatively
// applied for the subtree below it.
func (s *windowSearch) visit(d int) {
	if d == len(s.nodes) {
		s.leaf()
		return
	}
	sn := &s.nodes[d]
	id := sn.tn.info.id
	for k := range sn.tn.choices {
		t := sn.prices[k].target
		sn.cur = k
		sn.linked = t != ir.NoBlock && t != id && s.c.canLink(id, t)
		if sn.linked {
			sn.undo = s.c.tentativeLink(id, t)
		}
		if s.bound(d) < s.bestCost {
			s.visit(d + 1)
		}
		if sn.linked {
			s.c.undo(sn.undo)
		}
	}
}

// bound is a lower bound on the total of every leaf below the current path
// through node d.
func (s *windowSearch) bound(d int) float64 {
	lb := 0.0
	for i := range s.nodes {
		if i <= d {
			lb += s.nodes[i].floor()
		} else {
			lb += s.nodes[i].min
		}
	}
	return lb
}

// leaf prices the combination on the current path, every link applied.
func (s *windowSearch) leaf() {
	s.combos++
	total := 0.0
	for i := range s.nodes {
		total += s.nodes[i].price(s.c)
	}
	if total < s.bestCost {
		s.bestCost = total
		for i := range s.nodes {
			s.best[i] = s.nodes[i].cur
		}
	}
}
