package main

import (
	"fmt"
	"math/rand"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/core"
	"vransim/internal/ran"
	"vransim/internal/shard"
	"vransim/internal/simd"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// cellSpec is one served cell: its block size, SLA class, and how many
// blocks it keeps outstanding in the closed-loop saturation phase.
type cellSpec struct {
	K      int
	Class  ran.Class
	Window int
}

// servingSpec fixes one serving workload. Rates and deadlines are
// absolute values chosen from open-loop probing of the parent commit
// on the reference host (see README.md); they are never re-calibrated
// per run, so a faster decoder shows up as lower latency and fewer
// misses at the same offered load.
type servingSpec struct {
	Width simd.Width
	Cells []cellSpec
	// Shards > 0 serves through an in-process shard fleet (one runtime
	// per shard behind a coordinator and fronthaul pipes); 0 serves
	// from one runtime.
	Shards  int
	Workers int // decode workers per runtime

	QueueDepth    int
	BatchWindow   time.Duration
	Deadline      time.Duration // eMBB budget
	URLLCDeadline time.Duration
	// CorruptRate is the share of receptions the chaos injector makes
	// noisy; HARQ recovers the ones that fail the truth check.
	CorruptRate float64

	// Light and Heavy are the open-loop phases' per-cell processes.
	Light, Heavy []cellLoad
}

// poolSize is the number of distinct pre-encoded words per cell.
const poolSize = 64

// wordAmp is the LLR amplitude of a clean pre-encoded word.
const wordAmp = 24

func (s *servingSpec) classOf(cell int) ran.Class { return s.Cells[cell].Class }

func (s *servingSpec) windows() []int {
	w := make([]int, len(s.Cells))
	for i, c := range s.Cells {
		w[i] = c.Window
	}
	return w
}
func (s *servingSpec) kOf(cell int) int { return s.Cells[cell].K }

func (s *servingSpec) deadline(c ran.Class) time.Duration {
	if c == ran.ClassURLLC {
		return s.URLLCDeadline
	}
	return s.Deadline
}

// distinctKs lists the block sizes a runtime serving cells decodes.
func distinctKs(cells []cellSpec, pick func(cell int) bool) []int {
	var ks []int
	seen := map[int]bool{}
	for i, c := range cells {
		if pick(i) && !seen[c.K] {
			seen[c.K] = true
			ks = append(ks, c.K)
		}
	}
	return ks
}

// pools encodes poolSize random words per cell (cells of equal K share
// nothing: each cell gets its own seeded payloads).
type pools struct {
	cells []*ran.WordPool
}

func newPools(spec *servingSpec, seed int64) (*pools, error) {
	p := &pools{}
	for i, c := range spec.Cells {
		wp, err := ran.NewWordPool(c.K, poolSize, wordAmp, rand.New(rand.NewSource(subSeed(seed, "pool", i))))
		if err != nil {
			return nil, err
		}
		p.cells = append(p.cells, wp)
	}
	return p, nil
}

func (p *pools) get(cell, i int) (*turbo.LLRWord, []byte) { return p.cells[cell].Get(i) }

// system is one built serving deployment: a single runtime or a fleet.
type system struct {
	spec    *servingSpec
	rt      *ran.Runtime
	fleet   *shard.Fleet
	tracers []*telemetry.Tracer
}

// traceRing is the span ring of a traced runtime: large enough to hold
// every span of the open-loop phases, so stage percentiles come from
// exact per-span values rather than histogram buckets.
const traceRing = 1 << 16

func (s *servingSpec) runtimeConfig(l *ledger, seed int64, i int, tr *telemetry.Tracer) ran.Config {
	classes := make([]ran.Class, len(s.Cells))
	for c := range s.Cells {
		classes[c] = s.Cells[c].Class
	}
	cfg := ran.DefaultConfig(s.Width, core.StrategyAPCM)
	cfg.Cells = len(s.Cells)
	cfg.Workers = s.Workers
	cfg.QueueDepth = s.QueueDepth
	cfg.MaxIters = 4
	cfg.BatchWindow = s.BatchWindow
	cfg.Deadline = s.Deadline
	cfg.AdmissionGuard = true
	cfg.HARQ = ran.HARQConfig{MaxRetries: 3, Processes: 8}
	cfg.SLA = ran.SLAConfig{Classes: classes, URLLCDeadline: s.URLLCDeadline}
	cfg.Predict = ran.PredictConfig{Enabled: true}
	cfg.Chaos = chaos.New(chaos.Config{Seed: subSeed(seed, "chaos", i), CorruptRate: s.CorruptRate})
	cfg.CheckCRC = l.checkCRC
	cfg.OnDecoded = l.onDecoded
	cfg.Tracer = tr
	return cfg
}

// build starts a deployment wired to the ledger's hooks. traced arms a
// span tracer on every runtime and full-rate trace propagation across
// the fronthaul.
func (s *servingSpec) build(l *ledger, seed int64, traced bool) (*system, error) {
	sys := &system{spec: s}
	tracer := func() *telemetry.Tracer {
		if !traced {
			return nil
		}
		t := telemetry.NewTracer(traceRing, 0)
		sys.tracers = append(sys.tracers, t)
		return t
	}
	if s.Shards == 0 {
		rt, err := ran.New(s.runtimeConfig(l, seed, 0, tracer()))
		if err != nil {
			return nil, err
		}
		sys.rt = rt
		return sys, nil
	}
	cfgs := make([]ran.Config, s.Shards)
	for i := range cfgs {
		cfgs[i] = s.runtimeConfig(l, seed, i, tracer())
	}
	sample := 0
	if traced {
		sample = 1
	}
	f, err := shard.NewFleet(shard.FleetConfig{
		Coordinator: shard.Config{
			Cells:    len(s.Cells),
			Deadline: s.Deadline,
			Trace:    shard.TraceConfig{Sample: sample},
		},
		Runtime: func(i int) ran.Config { return cfgs[i] },
		Shards:  s.Shards,
	})
	if err != nil {
		return nil, err
	}
	sys.fleet = f
	return sys, nil
}

func (sys *system) submit(seq, cell int, w *turbo.LLRWord) bool {
	k := sys.spec.Cells[cell].K
	if sys.rt != nil {
		return sys.rt.SubmitProcess(cell, seq, seq, k, w) == ran.Admitted
	}
	return sys.fleet.Coord.Submit(cell, seq, seq, k, w) == nil
}

func (sys *system) runtimes() []*ran.Runtime {
	if sys.rt != nil {
		return []*ran.Runtime{sys.rt}
	}
	return sys.fleet.Runtimes
}

func (sys *system) counters() counters {
	rts := sys.runtimes()
	snaps := make([]*ran.Snapshot, len(rts))
	var busy float64
	for i, rt := range rts {
		snaps[i] = rt.Snapshot()
		busy += snaps[i].WorkerUtilization * float64(sys.spec.Workers) * float64(snaps[i].Elapsed.Nanoseconds())
	}
	if len(snaps) == 1 {
		return counters{snap: snaps[0], per: snaps, busyNs: busy}
	}
	return counters{snap: shard.Aggregate(snaps), per: snaps, busyNs: busy}
}

// stop tears the deployment down.
func (sys *system) stop() error {
	if sys.rt != nil {
		sys.rt.Stop()
		return nil
	}
	_, errs := sys.fleet.Stop()
	if len(errs) > 0 {
		return fmt.Errorf("fleet stop: %v", errs)
	}
	return nil
}

// warmUp drives every cell closed-loop until every runtime has compiled
// a replay program for each block size it serves, and for at least
// minWarm, then waits for the warm-up blocks to finish. It fails if
// the programs never all compile.
func (sys *system) warmUp(l *ledger) error {
	const (
		minWarm = 300 * time.Millisecond
		maxWarm = 30 * time.Second
	)
	spec := sys.spec
	shards := spec.Shards
	if shards == 0 {
		shards = 1
	}
	rts := sys.runtimes()
	want := make([]int, len(rts))
	for i := range want {
		want[i] = len(distinctKs(spec.Cells, func(cell int) bool { return cell%shards == i }))
	}
	start := time.Now()
	compiled := func() bool {
		for i, rt := range rts {
			if rt.Snapshot().CompiledPlans < want[i] {
				return false
			}
		}
		return true
	}
	l.closedLoop(sys, spec.windows(), func() bool {
		el := time.Since(start)
		return el > maxWarm || (el >= minWarm && compiled())
	})
	if !compiled() {
		return fmt.Errorf("warm-up: replay programs not compiled for every block size after %v", maxWarm)
	}
	_, err := l.drain(sys, uint64(l.n), drainTimeout)
	return err
}
