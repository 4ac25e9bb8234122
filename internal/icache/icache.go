// Package icache models an instruction cache fed by the control-transfer
// event stream. The paper frames branch alignment as a branch-cost
// optimization, but its prior work (McFarling, Hwu & Chang, Pettis &
// Hansen) motivated the same reordering by instruction-cache locality, and
// the paper remarks that alignment "may also improve" cache behaviour; this
// package lets the experiments measure that side effect.
//
// The simulator reconstructs the full instruction fetch stream from break
// events alone: between one event's destination and the next event's site,
// fetch proceeds sequentially, so every line in between is touched exactly
// once per traversal.
package icache

import (
	"fmt"

	"balign/internal/ir"
	"balign/internal/trace"
)

// Config is the cache geometry.
type Config struct {
	// LineBytes is the cache line size in bytes (power of two).
	LineBytes int
	// Sets and Ways define the organization; Sets must be a power of two.
	Sets int
	Ways int
}

// DefaultConfig returns an 8 KB 2-way cache with 32-byte lines, matching
// the class of machine the paper evaluated on (the 21064 had an 8 KB
// I-cache).
func DefaultConfig() Config {
	return Config{LineBytes: 32, Sets: 128, Ways: 2}
}

type line struct {
	valid bool
	tag   uint64
	lru   uint64
}

// Sim is a trace.Sink that simulates the instruction cache. Batch feeds
// it the packed form of the same stream.
type Sim struct {
	cfg   Config
	lines []line
	tick  uint64

	cur     uint64 // next sequential fetch address
	started bool

	// Fetches counts instruction fetches; Accesses counts line probes
	// (one per distinct line touched per traversal); Misses counts probe
	// misses.
	Fetches  uint64
	Accesses uint64
	Misses   uint64
}

// New returns a simulator with the given geometry.
func New(cfg Config) *Sim {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("icache: line size %d not a power of two", cfg.LineBytes))
	}
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("icache: set count %d not a power of two", cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic("icache: ways must be positive")
	}
	return &Sim{cfg: cfg, lines: make([]line, cfg.Sets*cfg.Ways)}
}

// SizeBytes returns the cache capacity.
func (s *Sim) SizeBytes() int { return s.cfg.LineBytes * s.cfg.Sets * s.cfg.Ways }

func (s *Sim) access(lineAddr uint64) {
	s.tick++
	s.Accesses++
	set := int(lineAddr % uint64(s.cfg.Sets))
	ways := s.lines[set*s.cfg.Ways : (set+1)*s.cfg.Ways]
	victim := 0
	for i := range ways {
		if ways[i].valid && ways[i].tag == lineAddr {
			ways[i].lru = s.tick
			return
		}
		if !ways[i].valid {
			victim = i
		} else if ways[victim].valid && ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	s.Misses++
	ways[victim] = line{valid: true, tag: lineAddr, lru: s.tick}
}

// fetchRange simulates sequential fetch of [from, to] inclusive.
func (s *Sim) fetchRange(from, to uint64) {
	if to < from {
		return
	}
	s.Fetches += (to-from)/ir.InstrBytes + 1
	lb := uint64(s.cfg.LineBytes)
	for l := from / lb; l <= to/lb; l++ {
		s.access(l)
	}
}

// Event implements trace.Sink.
func (s *Sim) Event(ev trace.Event) {
	next := ev.Target
	if ev.Kind == ir.CondBr && !ev.Taken {
		next = ev.Fall
	}
	s.step(ev.PC, next)
}

// Batch consumes one packed batch encoded against lay, advancing the cache
// exactly as Event does over the events lay.Decode rebuilds from it. Each
// op's static fields come straight from the layout's site table, so no
// Event is built. Like Event, a not-taken conditional continues fetching at
// its site's Fall, the next sequential instruction. Malformed ops (a site
// id out of range, a kind disagreeing with its site, a missing or surplus
// dynamic target) return an error: they mean the batch was built against
// a different layout.
func (s *Sim) Batch(lay *trace.Layout, b *trace.Batch) error {
	sites := lay.Sites()
	targets := b.Targets
	tcur := 0
	for i, op := range b.Ops {
		si := int(op >> trace.OpShift)
		kind := ir.Kind(op >> 1 & (1<<trace.SlotShift - 1))
		if uint(si) >= uint(len(sites)) {
			return fmt.Errorf("icache: batch op %d references site %d of %d", i, si, len(sites))
		}
		site := &sites[si]
		if kind != site.Kind {
			return fmt.Errorf("icache: batch op %d kind %v at pc %#x does not match site kind %v", i, kind, site.PC, site.Kind)
		}
		next := site.TakenTarget
		switch kind {
		case ir.CondBr:
			if op&1 == 0 {
				next = site.Fall
			}
		case ir.IJump, ir.Ret:
			if tcur >= len(targets) {
				return fmt.Errorf("icache: batch carries %d dynamic targets but op %d (%v at pc %#x) needs more",
					len(targets), i, kind, site.PC)
			}
			next = targets[tcur]
			tcur++
		}
		s.step(site.PC, next)
	}
	if tcur != len(targets) {
		return fmt.Errorf("icache: batch carries %d dynamic targets, its ops consumed %d", len(targets), tcur)
	}
	return nil
}

// step fetches sequentially from the current fetch address up to the break
// at pc, then redirects fetch to next.
func (s *Sim) step(pc, next uint64) {
	if !s.started {
		s.cur = pc
		s.started = true
	}
	if pc >= s.cur {
		s.fetchRange(s.cur, pc)
	} else {
		// Out-of-order site (a new walk segment): fetch just the site.
		s.fetchRange(pc, pc)
	}
	s.cur = next
}

// MissRate returns misses per line probe.
func (s *Sim) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MPKI returns misses per thousand fetched instructions, the standard
// I-cache metric.
func (s *Sim) MPKI() float64 {
	if s.Fetches == 0 {
		return 0
	}
	return 1000 * float64(s.Misses) / float64(s.Fetches)
}

// Reset clears the cache and counters.
func (s *Sim) Reset() {
	for i := range s.lines {
		s.lines[i] = line{}
	}
	s.tick, s.Fetches, s.Accesses, s.Misses = 0, 0, 0, 0
	s.started = false
}
