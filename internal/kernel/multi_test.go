package kernel

import (
	"fmt"
	"reflect"
	"testing"

	"balign/internal/ir"
	"balign/internal/predict"
	"balign/internal/trace"
)

// dispatchProgram has a site of every kind — cbr, br, call, ijump, ret —
// on a loop the walker runs through many times.
const dispatchProgram = `
proc main
    li   r1, 400
loop:
    addi r1, r1, -1
    call f
    ijump r2, [a, b]
a:
    addi r3, r3, 1
    br join
b:
    addi r4, r4, 1
join:
    bnez r1, loop
    halt
endproc
proc f
    ret
endproc
`

// firstOf returns the first event of the given kind.
func firstOf(t *testing.T, events []trace.Event, kind ir.Kind) trace.Event {
	t.Helper()
	for _, e := range events {
		if e.Kind == kind {
			return e
		}
	}
	t.Fatalf("no %v event in the stream", kind)
	return trace.Event{}
}

// TestMultiArchKernelAcrossChunks runs one kernel over every registered
// architecture on batches of chunkOps-1, chunkOps, chunkOps+1 and
// 3*chunkOps+7 ops, and requires each architecture's result and per-site
// costs to equal both its one-architecture kernel's and the reference
// simulator's. A call/return pair and two indirect jumps are spliced
// around the first chunk boundary, so the return stack and the
// dynamic-target cursor carry across it: the call is the first chunk's
// second-last op, an indirect jump its last, the return the next chunk's
// first op and another indirect jump its second.
func TestMultiArchKernelAcrossChunks(t *testing.T) {
	prog := mustAssemble(t, dispatchProgram)
	prof := profileOf(t, prog, 20_000)
	walked := recordEvents(t, prog, 40_000)
	if len(walked) < 4*chunkOps {
		t.Fatalf("walk produced %d events, want at least %d", len(walked), 4*chunkOps)
	}
	call, ijump, ret := firstOf(t, walked, ir.Call), firstOf(t, walked, ir.IJump), firstOf(t, walked, ir.Ret)
	ret.Target, ret.TakenTarget = call.Fall, call.Fall
	at := chunkOps - 2
	events := append(append(append([]trace.Event{}, walked[:at]...), call, ijump, ret, ijump), walked[at:]...)

	lay, err := trace.CompileLayout(prog)
	if err != nil {
		t.Fatal(err)
	}
	archs := predict.AllArchs()
	for _, size := range []int{chunkOps - 1, chunkOps, chunkOps + 1, 3*chunkOps + 7} {
		t.Run(fmt.Sprintf("batch%d", size), func(t *testing.T) {
			batches := packBatches(t, lay, events, size)
			multi, err := CompileArchs(lay, prog, prof, archs, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if err := multi.RunBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			results := multi.Results()
			for i, arch := range archs {
				single, err := CompileArch(lay, prog, prof, arch, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range batches {
					if err := single.RunBatch(b); err != nil {
						t.Fatal(err)
					}
				}
				sim, err := predict.NewSimulator(arch, prog, prof)
				if err != nil {
					t.Fatal(err)
				}
				rec := NewSiteRecorder(sim)
				for _, e := range events {
					rec.Event(e)
				}
				if results[i] != sim.Result() || single.Result() != sim.Result() {
					t.Errorf("%s: Result mismatch:\n multi     %+v\n single    %+v\n reference %+v",
						arch, results[i], single.Result(), sim.Result())
				}
				if got := multi.SiteCostsOf(i); !reflect.DeepEqual(got, rec.Costs) || !reflect.DeepEqual(single.SiteCosts(), rec.Costs) {
					t.Errorf("%s: per-site costs diverge (%d multi sites, %d single, %d reference)",
						arch, len(got), len(single.SiteCosts()), len(rec.Costs))
				}
			}
		})
	}
}

// fuzzBatch turns fuzz bytes into a packed batch over sites. data[0]
// moves the dynamic-target count by -2..+2 from what the ops consume. Each
// op then takes three bytes:
//   - a site byte: 255 is site -1, anything else modulo len(sites)+1, so
//     len(sites) is one past the table;
//   - a kind byte: bit 0 is the outcome; with bit 7 clear the op carries
//     its site's kind, with bit 7 set bits 1-3 are the kind as is, right
//     or wrong;
//   - a target byte choosing an IJump or Ret op's target from addrs.
func fuzzBatch(data []byte, sites []trace.SiteInfo, addrs []uint64) *trace.Batch {
	b := &trace.Batch{}
	if len(data) == 0 {
		return b
	}
	delta := int(data[0]%5) - 2
	for p := data[1:]; len(p) >= 3; p = p[3:] {
		si := int(p[0]) % (len(sites) + 1)
		if p[0] == 255 {
			si = -1
		}
		kind := ir.Kind(p[1] >> 1 & (1<<trace.SlotShift - 1))
		if p[1]&0x80 == 0 && si >= 0 && si < len(sites) {
			kind = sites[si].Kind
		}
		b.Ops = append(b.Ops, int32(si)<<trace.OpShift|int32(kind)<<1|int32(p[1]&1))
		if kind == ir.IJump || kind == ir.Ret {
			b.Targets = append(b.Targets, addrs[int(p[2])%len(addrs)])
		}
	}
	if delta < 0 {
		b.Targets = b.Targets[:max(0, len(b.Targets)+delta)]
	}
	for ; delta > 0; delta-- {
		b.Targets = append(b.Targets, addrs[0])
	}
	return b
}

// fuzzAddrs lists the dynamic targets a fuzzed op may carry: every block
// address of prog, then every call's return address, so returns can hit
// the return stack.
func fuzzAddrs(prog *ir.Program, lay *trace.Layout) []uint64 {
	var addrs []uint64
	for _, p := range prog.Procs {
		for _, b := range p.Blocks {
			addrs = append(addrs, b.Addr)
		}
	}
	for _, s := range lay.Sites() {
		if s.Kind == ir.Call {
			addrs = append(addrs, s.Fall)
		}
	}
	return addrs
}

// FuzzKernelBatch holds the kernel to the reference executor on arbitrary
// batches over a layout with every site kind: one kernel over every
// registered architecture returns an error exactly when Layout.Decode
// does, and when both accept, each architecture's result and per-site
// costs equal its reference simulator's over the decoded events.
func FuzzKernelBatch(f *testing.F) {
	prog := mustAssemble(f, dispatchProgram)
	prof := profileOf(f, prog, 20_000)
	lay, err := trace.CompileLayout(prog)
	if err != nil {
		f.Fatal(err)
	}
	sites, addrs := lay.Sites(), fuzzAddrs(prog, lay)
	archs := predict.AllArchs()
	k, err := CompileArchs(lay, prog, prof, archs, nil)
	if err != nil {
		f.Fatal(err)
	}
	sims := make([]predict.Simulator, len(archs))
	for i, arch := range archs {
		if sims[i], err = predict.NewSimulator(arch, prog, prof); err != nil {
			f.Fatal(err)
		}
	}
	// Inputs run one at a time per process, so each reuses the kernel and
	// the simulators after a Reset.
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBatch(data, sites, addrs)
		k.Reset()
		kerr := k.RunBatch(b)
		var events []trace.Event
		derr := lay.Decode(b, func(e trace.Event) { events = append(events, e) })
		if (kerr == nil) != (derr == nil) {
			t.Fatalf("kernel error %v, Decode error %v", kerr, derr)
		}
		if kerr != nil {
			return
		}
		results := k.Results()
		for i, arch := range archs {
			sims[i].Reset()
			want, wantCosts := ReferenceRun(sims[i], events)
			if results[i] != want {
				t.Errorf("%s: Result mismatch:\n kernel    %+v\n reference %+v", arch, results[i], want)
			}
			if got := k.SiteCostsOf(i); !reflect.DeepEqual(got, wantCosts) {
				t.Errorf("%s: per-site costs diverge:\n kernel    %v\n reference %v", arch, got, wantCosts)
			}
		}
	})
}
