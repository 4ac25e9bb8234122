// Benchmarks regenerating each of the paper's tables and figures (at
// reduced trace scale; use cmd/baexp for full-scale runs), plus
// micro-benchmarks of the substrates: the alignment algorithms, the
// predictors, the walker and the VM.
package balign_test

import (
	"io"
	"math/rand"
	"runtime"
	"testing"

	"balign"
	"balign/internal/core"
	"balign/internal/cost"
	"balign/internal/experiments"
	"balign/internal/icache"
	"balign/internal/ir"
	"balign/internal/kernel"
	"balign/internal/obs"
	"balign/internal/predict"
	"balign/internal/trace"
	"balign/internal/workload"
)

func benchCfg(programs ...string) experiments.Config {
	return experiments.Config{Scale: 0.1, Window: 10, Programs: programs}
}

// BenchmarkTable1CostModel prices a procedure layout under every
// architecture cost model (the Table 1 machinery).
func BenchmarkTable1CostModel(b *testing.B) {
	w, err := workload.ByName("doduc", workload.Config{Scale: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	pf, _, err := w.CollectProfile()
	if err != nil {
		b.Fatal(err)
	}
	models := []cost.Model{cost.FallthroughModel{}, cost.BTFNTModel{},
		cost.LikelyModel{}, cost.PHTModel{}, cost.BTBModel{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			_ = cost.ProgramCost(w.Prog, pf, m)
		}
	}
}

// BenchmarkTable2Attributes measures one program's Table 2 attributes.
func BenchmarkTable2Attributes(b *testing.B) {
	cfg := benchCfg("ora")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Static runs the static-architecture evaluation matrix.
func BenchmarkTable3Static(b *testing.B) {
	cfg := benchCfg("ora", "compress")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Dynamic runs the dynamic-architecture evaluation matrix.
func BenchmarkTable4Dynamic(b *testing.B) {
	cfg := benchCfg("ora", "compress")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Espresso reproduces the Figure 1 fragment analysis.
func BenchmarkFig1Espresso(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Alvinn reproduces the Figure 2 loop trick.
func BenchmarkFig2Alvinn(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3LoopBreak reproduces the Figure 3 loop-breaking comparison.
func BenchmarkFig3LoopBreak(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ExecutionTime runs the pipeline-model timing comparison.
func BenchmarkFig4ExecutionTime(b *testing.B) {
	cfg := benchCfg("compress")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDesignChoices runs the §6.1 design-choice comparisons.
func BenchmarkAblationDesignChoices(b *testing.B) {
	cfg := benchCfg("ora")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- experiment engine benchmarks ---

// suiteBenchOpts is the RunSuite configuration both engine benchmarks share:
// a multi-program grid large enough that sharding matters.
func suiteBenchOpts(parallelism int) balign.SuiteOptions {
	return balign.SuiteOptions{
		Scale: 0.1, Window: 10,
		Programs:    []string{"ora", "compress", "espresso", "db++", "doduc", "li"},
		Parallelism: parallelism,
	}
}

// BenchmarkSuiteSerial runs the evaluation grid on the serial oracle path
// (Parallelism = 1). Compare against BenchmarkSuiteParallel for the
// engine's wall-clock speedup; the outputs themselves are byte-identical.
func BenchmarkSuiteSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := balign.RunSuite(suiteBenchOpts(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteParallel runs the same grid sharded across 8 workers. On a
// single-core host this matches the serial time (the engine adds no real
// overhead); with cores available the speedup tracks min(8, cores) until
// per-program preparation becomes the critical path.
func BenchmarkSuiteParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := balign.RunSuite(suiteBenchOpts(8)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteKernelRef runs the evaluation grid end-to-end on the
// reference simulators (-kernel=ref), the baseline BenchmarkSuiteKernelFlat
// compares the compiled flat kernel with.
func BenchmarkSuiteKernelRef(b *testing.B) {
	opts := suiteBenchOpts(1)
	opts.Kernel = "ref"
	for i := 0; i < b.N; i++ {
		if _, err := balign.RunSuite(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteKernelFlat runs the same grid on the compiled flat kernel
// (-kernel=flat, the default). The output is byte-identical to
// BenchmarkSuiteKernelRef; only the simulation executor differs. End-to-end
// time includes trace generation, so the gap understates the kernel's own
// speedup — BenchmarkSimulateGrid* isolates that.
func BenchmarkSuiteKernelFlat(b *testing.B) {
	opts := suiteBenchOpts(1)
	opts.Kernel = "flat"
	for i := 0; i < b.N; i++ {
		if _, err := balign.RunSuite(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// simulateGridFixture records one multi-program trace set once, so the
// SimulateGrid benchmarks time pure simulation with trace generation and
// alignment excluded.
func simulateGridFixture(b *testing.B) (units []struct {
	prog   *ir.Program
	prof   *balign.Profile
	events []trace.Event
}) {
	b.Helper()
	for _, name := range []string{"ora", "compress", "espresso", "db++", "doduc", "li"} {
		w, err := workload.ByName(name, workload.Config{Scale: 0.1})
		if err != nil {
			b.Fatal(err)
		}
		pf, _, err := w.CollectProfile()
		if err != nil {
			b.Fatal(err)
		}
		var rec trace.Recorder
		if _, err := w.Run(w.Prog, pf, &rec, nil); err != nil {
			b.Fatal(err)
		}
		units = append(units, struct {
			prog   *ir.Program
			prof   *balign.Profile
			events []trace.Event
		}{w.Prog, pf, rec.Events})
	}
	return units
}

// BenchmarkSimulateGridRef times the {program x architecture} simulation
// grid over pre-recorded traces on the reference simulators, fed one event
// at a time.
func BenchmarkSimulateGridRef(b *testing.B) {
	units := simulateGridFixture(b)
	archs := predict.AllArchs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events = 0
		for _, u := range units {
			for _, arch := range archs {
				s, err := predict.NewSimulator(arch, u.prog, u.prof)
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range u.events {
					s.Event(e)
				}
				events += s.Result().Events
			}
		}
	}
	b.ReportMetric(float64(events)/float64(len(units)*len(archs)), "events/cell")
}

// BenchmarkSimulateGridFlatBatch times the same grid through the packed
// batch path (kernel.RunBatch over pre-packed int32 batches) — the
// representation every streamed cell consumes in production. Per event
// this loads one int32 op instead of copying a 48-byte Event, so it is the
// executor's true steady-state ns/event.
func BenchmarkSimulateGridFlatBatch(b *testing.B) {
	units := simulateGridFixture(b)
	archs := predict.AllArchs()
	type packed struct {
		prog    *ir.Program
		prof    *balign.Profile
		lay     *trace.Layout
		batches []*trace.Batch
	}
	var ps []packed
	for _, u := range units {
		lay, err := trace.CompileLayout(u.prog)
		if err != nil {
			b.Fatal(err)
		}
		var batches []*trace.Batch
		cur := &trace.Batch{}
		for _, e := range u.events {
			if err := lay.Append(cur, e); err != nil {
				b.Fatal(err)
			}
			if cur.Len() >= trace.DefaultBatchCap {
				batches = append(batches, cur)
				cur = &trace.Batch{}
			}
		}
		if cur.Len() > 0 {
			batches = append(batches, cur)
		}
		ps = append(ps, packed{u.prog, u.prof, lay, batches})
	}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events = 0
		for _, p := range ps {
			for _, arch := range archs {
				k, err := kernel.CompileArch(p.lay, p.prog, p.prof, arch, nil)
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range p.batches {
					if err := k.RunBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				events += k.Result().Events
			}
		}
	}
	b.ReportMetric(float64(events)/float64(len(ps)*len(archs)), "events/cell")
}

// --- streaming pipeline benchmarks ---

// walkerBenchFixture builds the walker-traced workload the generation
// benchmarks share and counts its events once, outside any timer.
func walkerBenchFixture(b *testing.B) (*workload.Workload, *trace.Layout, uint64) {
	b.Helper()
	w, err := workload.ByName("hydro2d", workload.Config{Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	lay, err := trace.CompileLayout(w.Prog)
	if err != nil {
		b.Fatal(err)
	}
	var events uint64
	if _, err := w.Run(w.Prog, nil, trace.SinkFunc(func(trace.Event) { events++ }), nil); err != nil {
		b.Fatal(err)
	}
	return w, lay, events
}

// BenchmarkWalkerGenerate measures synthetic trace generation into a
// per-event sink: workload.Run's Walker.Run fills WalkSource batches and
// decodes every event into the sink.
func BenchmarkWalkerGenerate(b *testing.B) {
	w, _, events := walkerBenchFixture(b)
	sink := trace.SinkFunc(func(trace.Event) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(w.Prog, nil, sink, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
}

// BenchmarkWalkerGenerateStream measures the same walk as packed int32
// batches pulled from trace.WalkSource by Fill, as the grid streams it.
// Both benchmarks run one walk, so the difference from
// BenchmarkWalkerGenerate is the cost of decoding the events and calling
// the sink.
func BenchmarkWalkerGenerateStream(b *testing.B) {
	w, lay, events := walkerBenchFixture(b)
	var batch trace.Batch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := w.Stream(w.Prog, nil, lay, 0)
		if err != nil {
			b.Fatal(err)
		}
		for {
			ok, err := src.Fill(&batch)
			if err != nil {
				b.Fatal(err)
			}
			if !ok {
				break
			}
		}
		src.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*events), "ns/event")
}

// BenchmarkSuiteStreamOn runs the evaluation grid through the streamed
// broadcast pipeline: each variant's stream is generated once, one batch
// at a time, and handed to all architectures. It reports the
// heap-allocation delta per op (runtime.ReadMemStats) and the run's peak
// live trace bytes (the broadcast buffers' high-water gauge).
func BenchmarkSuiteStreamOn(b *testing.B) {
	cfg := experiments.Config{
		Scale: 0.1, Window: 10,
		Programs:    []string{"ora", "compress", "espresso", "db++", "doduc", "li"},
		Parallelism: 1,
	}
	var peak int64
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := obs.New("bench")
		cfg.Obs = rec
		if _, err := experiments.Summaries(cfg, predict.AllArchs()); err != nil {
			b.Fatal(err)
		}
		peak = rec.Report().Gauges["sim.stream.peak_live_bytes"]
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.TotalAlloc-alloc0)/float64(b.N), "allocbytes/op")
	b.ReportMetric(float64(peak), "peak_trace_bytes")
}

// --- substrate micro-benchmarks ---

func alignBenchFixture(b *testing.B) (*ir.Program, *balign.Profile) {
	b.Helper()
	w, err := workload.ByName("gcc", workload.Config{Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	pf, _, err := w.CollectProfile()
	if err != nil {
		b.Fatal(err)
	}
	return w.Prog, pf
}

// BenchmarkAlignGreedy measures Pettis-Hansen alignment of a gcc-sized
// program.
func BenchmarkAlignGreedy(b *testing.B) {
	prog, pf := alignBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AlignProgram(prog, pf, core.Options{Algorithm: core.AlgoGreedy}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlignCost measures the Cost algorithm.
func BenchmarkAlignCost(b *testing.B) {
	prog, pf := alignBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AlignProgram(prog, pf, core.Options{
			Algorithm: core.AlgoCost, Model: cost.FallthroughModel{},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlignTryN measures the TryN algorithm at the paper's window,
// under FALLTHROUGH and under BT/FNT, the one model whose prices depend on
// the tentative chain state.
func BenchmarkAlignTryN(b *testing.B) {
	prog, pf := alignBenchFixture(b)
	for _, bc := range []struct {
		model cost.Model
		order core.ChainOrder
	}{
		{cost.FallthroughModel{}, core.OrderHottest},
		{cost.BTFNTModel{}, core.OrderBTFNT},
	} {
		b.Run(bc.model.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.AlignProgram(prog, pf, core.Options{
					Algorithm: core.AlgoTryN, Model: bc.model, Order: bc.order, Window: 15,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWalker measures synthetic trace generation throughput
// (instructions walked per op).
func BenchmarkWalker(b *testing.B) {
	w, err := workload.ByName("hydro2d", workload.Config{Scale: 0.1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(w.Prog, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVMExecution measures interpreter throughput on a real kernel.
func BenchmarkVMExecution(b *testing.B) {
	w, err := workload.ByName("tomcatv", workload.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(w.Prog, nil, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGshare measures correlation-PHT event throughput.
func BenchmarkGshare(b *testing.B) {
	sim := predict.NewStaticSim(predict.NewGsharePHT(4096))
	ev := trace.Event{Kind: ir.CondBr, Taken: true, PC: 0x1040, Target: 0x1000, Fall: 0x1044}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Taken = i&3 != 0
		sim.Event(ev)
	}
}

// BenchmarkBTB measures BTB event throughput.
func BenchmarkBTB(b *testing.B) {
	sim := predict.NewBTBSim(256, 4)
	ev := trace.Event{Kind: ir.CondBr, Taken: true, PC: 0x1040, Target: 0x1000, Fall: 0x1044}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.PC = 0x1000 + uint64(i&1023)*4
		sim.Event(ev)
	}
}

// --- extension benchmarks ---

// BenchmarkExtUnrollStudy measures the loop-unrolling study (paper's ALVINN
// suggestion).
func BenchmarkExtUnrollStudy(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.UnrollStudy([]string{"alvinn"}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtPenaltySweep measures the wide-issue penalty sweep.
func BenchmarkExtPenaltySweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PenaltySweep("compress", cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtCrossTraining measures the profile cross-training study.
func BenchmarkExtCrossTraining(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CrossTraining([]string{"compress"}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnrollLoops measures the unrolling transformation itself.
func BenchmarkUnrollLoops(b *testing.B) {
	w, err := workload.ByName("alvinn", workload.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pf, _, err := w.CollectProfile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := core.UnrollLoops(w.Prog, pf, core.DefaultUnrollOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReorderProcs measures hottest-first procedure reordering.
func BenchmarkReorderProcs(b *testing.B) {
	prog, pf := alignBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReorderProcs(prog, pf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalPHT measures the PAg extension predictor's throughput.
func BenchmarkLocalPHT(b *testing.B) {
	sim := predict.NewStaticSim(predict.NewLocalPHT(1024, 4096))
	ev := trace.Event{Kind: ir.CondBr, Taken: true, PC: 0x1040, Target: 0x1000, Fall: 0x1044}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Taken = i&3 != 0
		sim.Event(ev)
	}
}

// BenchmarkTaggedStep measures the tagged predictors' cost per conditional
// event over one fixed seeded (slot, outcome) sequence, under the two call
// patterns: step is the flat kernel's one fused Step, predict+update the
// reference simulator's PredictBit then UpdateBit, which looks the tables
// up twice.
func BenchmarkTaggedStep(b *testing.B) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(1))
	slots := make([]uint64, 64)
	for i := range slots {
		slots[i] = uint64(rng.Intn(1 << 14))
	}
	seq := make([]struct {
		slot  uint64
		taken uint8
	}, n)
	for i := range seq {
		s := rng.Intn(len(slots))
		seq[i].slot = slots[s]
		switch s % 3 {
		case 0: // biased
			seq[i].taken = uint8(min(rng.Intn(8), 1))
		case 1: // loop of period s%5+2
			seq[i].taken = uint8(min(i%(s%5+2), 1))
		default: // noise
			seq[i].taken = uint8(rng.Intn(2))
		}
	}
	type tagged interface {
		PredictBit(uint64) uint8
		UpdateBit(uint64, uint8)
		Step(uint64, uint8) uint8
	}
	preds := []struct {
		name  string
		fresh func() tagged
	}{
		{"tage", func() tagged { return predict.NewTAGE(predict.DefaultTAGEConfig) }},
		{"perceptron", func() tagged { return predict.NewHashedPerceptron(predict.DefaultPerceptronConfig) }},
	}
	// Both legs start from a fresh predictor and make the same
	// predictions, so at a fixed -benchtime=Nx their accuracies agree.
	for _, pr := range preds {
		b.Run(pr.name+"/step", func(b *testing.B) {
			p, correct := pr.fresh(), 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := seq[i&(n-1)]
				correct += int(1 ^ p.Step(e.slot, e.taken) ^ e.taken)
			}
			b.ReportMetric(float64(correct)/float64(b.N), "accuracy")
		})
		b.Run(pr.name+"/predict+update", func(b *testing.B) {
			p, correct := pr.fresh(), 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := seq[i&(n-1)]
				correct += int(1 ^ p.PredictBit(e.slot) ^ e.taken)
				p.UpdateBit(e.slot, e.taken)
			}
			b.ReportMetric(float64(correct)/float64(b.N), "accuracy")
		})
	}
}

// BenchmarkTraceFileWrite measures event serialization throughput.
func BenchmarkTraceFileWrite(b *testing.B) {
	fw := trace.NewFileWriter(io.Discard)
	ev := trace.Event{Kind: ir.CondBr, Taken: true, PC: 0x1040, Target: 0x1000, Fall: 0x1044}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.PC += 8
		fw.Event(ev)
	}
	if err := fw.Flush(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkICacheSim measures the I-cache simulator's event throughput.
func BenchmarkICacheSim(b *testing.B) {
	sim := icache.New(icache.DefaultConfig())
	ev := trace.Event{Kind: ir.Br, Taken: true, PC: 0x1000, Target: 0x1200, Fall: 0x1004}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.PC = 0x1000 + uint64(i&255)*4
		ev.Target = ev.PC ^ 0x700
		sim.Event(ev)
	}
}

// BenchmarkExtICacheStudy measures the I-cache locality study.
func BenchmarkExtICacheStudy(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ICacheStudy([]string{"espresso"}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtHintStudy measures the LIKELY hint-source comparison.
func BenchmarkExtHintStudy(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HintStudy([]string{"espresso"}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtSeedSweep measures the seed-robustness sweep.
func BenchmarkExtSeedSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SeedSweep([]string{"ora"}, 3, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
