package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"vransim/internal/ran"
	"vransim/internal/telemetry"
	"vransim/internal/turbo"
)

// setUp encodes the word pools, builds the deployment and warms it up:
// the work counted as setup_s.
func setUp(spec *servingSpec, seed int64, traced bool) (*system, *ledger, time.Duration, error) {
	start := time.Now()
	pl, err := newPools(spec, seed)
	if err != nil {
		return nil, nil, 0, err
	}
	l := newLedger(len(spec.Cells), pl.get)
	sys, err := spec.build(l, seed, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := sys.warmUp(l); err != nil {
		sys.stop()
		return nil, nil, 0, err
	}
	return sys, l, time.Since(start), nil
}

// boundary is the state at a phase boundary, after the phase's blocks
// have all finished.
type boundary struct {
	c  counters
	at time.Time
}

// servingRun is one measured pass through the serving phases.
type servingRun struct {
	sat                []phaseOutcome // saturation slices
	light, heavy       phaseOutcome
	bSat, bH           boundary  // before light, after heavy
	submitUs           []float64 // open-loop phases
	openStart, openEnd time.Time
}

// finishPhase waits for a phase's blocks to finish, then checks the
// phase's ledger against the runtime counters.
func (sys *system) finishPhase(l *ledger, rep *report, name string, sp span, before boundary) (boundary, error) {
	c, err := l.drain(sys, uint64(l.n), drainTimeout)
	if err != nil {
		return boundary{}, fmt.Errorf("%s: %w", name, err)
	}
	b := boundary{c: c, at: time.Now()}
	checkLedger(rep, name, before.c.snap, c.snap, sp, l, sys.rt != nil)
	return b, nil
}

// checkLedger verifies one phase's conservation: offered = accepted +
// rejected and accepted = delivered + every drop cause, from runtime
// counter deltas, and that the ledger saw exactly the deliveries the
// runtime counted.
func checkLedger(rep *report, name string, a, b *ran.Snapshot, sp span, l *ledger, single bool) {
	offered := uint64(sp.hi - sp.lo)
	acc := b.Accepted - a.Accepted
	rej := rejects(b) - rejects(a)
	del := b.Delivered - a.Delivered
	post := postDrops(b) - postDrops(a)
	var seen, refused uint64
	for seq := sp.lo; seq < sp.hi; seq++ {
		r := l.rec(seq)
		if r.done.Load() != 0 {
			seen++
		}
		if r.rejected {
			refused++
		}
	}
	if offered != acc+rej {
		rep.fail("%s ledger: offered %d != accepted %d + rejected %d", name, offered, acc, rej)
	}
	if acc != del+post {
		rep.fail("%s ledger: accepted %d != delivered %d + dropped %d", name, acc, del, post)
	}
	if seen != del {
		rep.fail("%s ledger: %d deliveries reached the benchmark, runtime counted %d", name, seen, del)
	}
	if single && refused != rej {
		rep.fail("%s ledger: %d submits refused, runtime counted %d rejections", name, refused, rej)
	}
}

// share is the part of --seconds a phase of the given share runs for.
func (o options) share(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

// saturate runs one closed-loop saturation slice of length d, drained
// and ledger-checked.
func (sys *system) saturate(l *ledger, rep *report, d time.Duration, before boundary) (boundary, phaseOutcome, error) {
	spec := sys.spec
	end := time.Now().Add(d)
	sp := l.closedLoop(sys, spec.windows(), func() bool { return time.Now().After(end) })
	b, err := sys.finishPhase(l, rep, "saturation", sp, before)
	return b, l.outcome(sp, spec.classOf, spec.kOf, spec.deadline), err
}

// servePhases runs the serving phases, each drained and
// ledger-checked: a closed-loop saturation slice, the light and heavy
// open-loop phases, and a second saturation slice. Splitting saturation
// across the start and end of the run averages goodput over the host's
// speed drift instead of sampling one moment of it. Cutting every phase
// into pieces interleaved over the run made the figures less steady,
// not more, most likely because a heavy piece leaves state (the shed
// ladder, the burst predictor) that disturbs the pieces after it.
func (sys *system) servePhases(l *ledger, o options, rep *report, timed bool) (*servingRun, error) {
	spec := sys.spec
	run := &servingRun{}
	b := boundary{c: sys.counters(), at: time.Now()}
	saturate := func() error {
		var out phaseOutcome
		var err error
		b, out, err = sys.saturate(l, rep, o.share(satShare/2), b)
		run.sat = append(run.sat, out)
		return err
	}
	open := func(loads []cellLoad, share float64, phase string) (phaseOutcome, error) {
		sp, us := l.openLoop(sys, schedule(loads, o.share(share), o.seed, phase), timed)
		run.submitUs = append(run.submitUs, us...)
		var err error
		if b, err = sys.finishPhase(l, rep, phase, sp, b); err != nil {
			return phaseOutcome{}, err
		}
		return l.outcome(sp, spec.classOf, spec.kOf, spec.deadline), nil
	}
	if err := saturate(); err != nil {
		return nil, err
	}
	run.bSat, run.openStart = b, time.Now()
	var err error
	if run.light, err = open(spec.Light, lightShare, "light"); err != nil {
		return nil, err
	}
	if run.heavy, err = open(spec.Heavy, heavyShare, "heavy"); err != nil {
		return nil, err
	}
	run.bH, run.openEnd = b, time.Now()
	if err := saturate(); err != nil {
		return nil, err
	}
	return run, nil
}

// checkOutcomes applies the per-block correctness gate and counts the
// blocks attempted.
func checkOutcomes(rep *report, l *ledger, outs ...phaseOutcome) {
	for _, o := range outs {
		rep.attempted += o.offered
		if o.wrong > 0 {
			rep.failed += o.wrong
			rep.fail("%d delivered blocks differ from their truth payload", o.wrong)
		}
	}
	if n := l.unknown.Load(); n > 0 {
		rep.fail("%d decoded blocks the benchmark never offered", n)
	}
}

// untracedRun measures the end-to-end metrics.
func untracedRun(spec *servingSpec, o options, rep *report) error {
	var setups []float64
	var sys *system
	var l *ledger
	for i := 0; i < setupReps; i++ {
		s, sl, d, err := setUp(spec, o.seed, false)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if i < setupReps-1 {
			if err := s.stop(); err != nil {
				return err
			}
			// Collect the discarded deployment's arenas now, so the next
			// set-up reuses their memory and max_rss_mb measures one
			// deployment, not however many the collector has not reached.
			runtime.GC()
			continue
		}
		sys, l = s, sl
	}
	run, err := sys.servePhases(l, o, rep, false)
	if err != nil {
		sys.stop()
		return err
	}
	if err := sys.stop(); err != nil {
		return err
	}
	checkOutcomes(rep, l, append(run.sat, run.light, run.heavy)...)

	rep.add("setup_s", median(setups), "s", clockHost)
	servingMetrics(spec, run, rep)
	// Read before the grid: the peak of the serving deployment, which
	// the grid's much larger traced engines would otherwise mask.
	rep.add("max_rss_mb", maxRSSMB(), "MiB", clockHost)
	runGrid(o.seed, rep, false)
	return nil
}

// servingMetrics reports the end-to-end serving metrics of one run.
func servingMetrics(spec *servingSpec, run *servingRun, rep *report) {
	mbps, n := windowedGoodput(run.sat...)
	rep.addNote("goodput_mbps", mbps, "Mbit/s", clockHost, fmt.Sprintf("completions=%d windows=%v", n, spec.windows()))
	rep.addPctl("p50_ms.light", percentile(run.light.latMs, 0.50), "ms", clockHost)
	rep.addPctl("p99_ms.light", percentile(run.light.latMs, 0.99), "ms", clockHost)
	rep.addPctl("p50_ms.heavy", percentile(run.heavy.latMs, 0.50), "ms", clockHost)
	rep.addPctl("p99_ms.heavy", percentile(run.heavy.latMs, 0.99), "ms", clockHost)
	rep.addNote("miss_ratio.heavy", ratio(float64(run.heavy.missed), float64(run.heavy.offered)), "ratio", clockHost,
		fmt.Sprintf("missed=%d offered=%d", run.heavy.missed, run.heavy.offered))
	rep.addPctl("urllc_p99_ms.heavy", percentile(run.heavy.latClassMs[ran.ClassURLLC], 0.99), "ms", clockHost)
}

// plainSaturation sets up an untraced deployment, runs one saturation
// slice of length d on it and tears it down.
func plainSaturation(spec *servingSpec, o options, rep *report, d time.Duration) (phaseOutcome, error) {
	sys, l, _, err := setUp(spec, o.seed, false)
	if err != nil {
		return phaseOutcome{}, fmt.Errorf("setup: %w", err)
	}
	_, out, err := sys.saturate(l, rep, d, boundary{c: sys.counters(), at: time.Now()})
	if serr := sys.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return phaseOutcome{}, err
	}
	checkOutcomes(rep, l, out)
	return out, nil
}

// tracedRun measures the per-layer metrics: the traced serving phases,
// bracketed by an untraced saturation slice before and after them (the
// tracing overhead; bracketing cancels a steady drift of host speed),
// the layer pass and the modeled grid's stage breakdown.
func tracedRun(spec *servingSpec, o options, rep *report) error {
	before, err := plainSaturation(spec, o, rep, o.share(satShare/2))
	if err != nil {
		return err
	}
	sys, l, _, err := setUp(spec, o.seed, true)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	run, err := sys.servePhases(l, o, rep, true)
	if err != nil {
		sys.stop()
		return err
	}
	if sys.fleet != nil {
		fleetLayers(sys, run, rep)
	}
	if err := sys.stop(); err != nil {
		return err
	}
	checkOutcomes(rep, l, append(run.sat, run.light, run.heavy)...)
	servingLayers(sys, run, rep)

	after, err := plainSaturation(spec, o, rep, o.share(satShare/2))
	if err != nil {
		return err
	}
	untraced, _ := windowedGoodput(before, after)
	traced, _ := windowedGoodput(run.sat...)
	rep.add("telemetry.trace_overhead_pct", 100*(1-ratio(traced, untraced)), "%", clockHost)

	if sys.fleet != nil {
		if err := runtimeProbe(spec, o.seed, rep); err != nil {
			return err
		}
	} else {
		rep.addPctl("ran.submit_us.p50", percentile(run.submitUs, 0.50), "us", clockHost)
		rep.addPctl("ran.submit_us.p99", percentile(run.submitUs, 0.99), "us", clockHost)
		if err := fleetProbe(spec, o.seed, rep); err != nil {
			return err
		}
	}
	if err := turboLayer(o.seed, rep); err != nil {
		return err
	}
	if err := frameLayer(spec, o.seed, rep); err != nil {
		return err
	}
	if err := modelLayer(o.seed, rep); err != nil {
		return err
	}
	runGrid(o.seed, rep, true)
	return nil
}

// openSpans returns the traced spans of blocks that ended during the
// open-loop phases.
func openSpans(tracers []*telemetry.Tracer, from, to time.Time) []telemetry.Span {
	var out []telemetry.Span
	for _, t := range tracers {
		for _, sp := range t.Recent() {
			if sp.Outcome == "compiled" || sp.Start.Before(from) || sp.Start.After(to) {
				continue
			}
			out = append(out, sp)
		}
	}
	return out
}

// stageVals collects one stage's dwell, in unit, over spans with outcome
// (any outcome when outcome is empty) that paid the stage.
func stageVals(spans []telemetry.Span, st telemetry.Stage, outcome string, unit time.Duration) []float64 {
	var out []float64
	for _, sp := range spans {
		if (outcome == "" || sp.Outcome == outcome) && sp.Stages[st] > 0 {
			out = append(out, float64(sp.Stages[st])/float64(unit))
		}
	}
	return out
}

// servingLayers reports the runtime-layer metrics of the traced
// open-loop phases: span stage percentiles and counter deltas.
func servingLayers(sys *system, run *servingRun, rep *report) {
	spec := sys.spec
	spans := openSpans(sys.tracers, run.openStart, run.openEnd)
	for _, s := range []struct {
		name string
		st   telemetry.Stage
	}{{"queue", telemetry.SpanQueue}, {"batch", telemetry.SpanBatch}, {"decode", telemetry.SpanDecode}} {
		v := stageVals(spans, s.st, "delivered", time.Millisecond)
		rep.addPctl("ran."+s.name+"_ms.p50", percentile(v, 0.50), "ms", clockHost)
		rep.addPctl("ran."+s.name+"_ms.p99", percentile(append([]float64(nil), v...), 0.99), "ms", clockHost)
	}
	rep.addPctl("ran.harq_retry_ms.p99", percentile(stageVals(spans, telemetry.SpanHARQRetry, "", time.Millisecond), 0.99), "ms", clockHost)

	a, b := run.bSat.c.snap, run.bH.c.snap
	lanes := float64(turbo.BlocksPerRegister(spec.Width))
	dBatches := float64(b.Batches - a.Batches)
	dDecoded := float64(b.DecodedBlocks - a.DecodedBlocks)
	rep.add("ran.lane_occupancy", ratio(dDecoded, dBatches*lanes), "ratio", clockHost)
	// Snapshot carries PackFill only as a cumulative ratio (-1 before the
	// first packed decode): rebuild the phase's filled slots from it and
	// the batch counts, assuming every batch took the packed path. Every
	// batch of both workloads does, so pack_fill then equals
	// lane_occupancy.
	packed := func(s *ran.Snapshot) float64 { return math.Max(s.PackFill, 0) * float64(s.Batches) }
	var filled float64
	for i := range run.bH.c.per {
		filled += packed(run.bH.c.per[i]) - packed(run.bSat.c.per[i])
	}
	rep.addNote("ran.pack_fill", ratio(filled, dBatches), "ratio", clockHost, "assumes every batch is packed")
	workers := float64(spec.Workers * len(sys.runtimes()))
	wall := float64(run.bH.at.Sub(run.bSat.at).Nanoseconds())
	rep.add("ran.worker_util", ratio(run.bH.c.busyNs-run.bSat.c.busyNs, workers*wall), "ratio", clockHost)
	var iters, blocks float64
	for r := range run.bH.c.per {
		pa, pb := run.bSat.c.per[r], run.bH.c.per[r]
		for i := range pb.DecodeIters {
			n := float64(pb.DecodeIters[i] - pa.DecodeIters[i])
			iters += n * float64(i+1)
			blocks += n
		}
	}
	rep.addNote("ran.iters_mean", ratio(iters, blocks), "iters", clockHost, "8+ bucket counted as 8")
	rep.add("ran.allocs_per_decode", b.DecodeAllocsPerOp, "allocs", clockHost)
	rep.add("ran.crc_fail_ratio", ratio(float64(b.CRCFailures-a.CRCFailures), dDecoded), "ratio", clockHost)
	rep.add("ran.harq_recovered_ratio", ratio(float64(b.HARQRecovered-a.HARQRecovered), float64(b.HARQRetries-a.HARQRetries)), "ratio", clockHost)
	offered := float64(run.light.offered + run.heavy.offered)
	accepted := float64(b.Accepted - a.Accepted)
	drop := func(c ran.DropCause) float64 { return float64(b.Drops[c] - a.Drops[c]) }
	rep.add("ran.reject_ratio.backlog", ratio(drop(ran.DropBacklog), offered), "ratio", clockHost)
	rep.add("ran.reject_ratio.deadline", ratio(drop(ran.DropAdmission), offered), "ratio", clockHost)
	rep.add("ran.reject_ratio.shed", ratio(drop(ran.DropShed), offered), "ratio", clockHost)
	rep.add("ran.drop_ratio.late", ratio(drop(ran.DropLate), accepted), "ratio", clockHost)
	rep.add("ran.drop_ratio.expired", ratio(drop(ran.DropExpired), accepted), "ratio", clockHost)
	rep.add("ran.drop_ratio.harq", ratio(drop(ran.DropHARQ), accepted), "ratio", clockHost)
	rep.add("ran.degraded_batch_ratio", ratio(float64(b.DegradedBatches-a.DegradedBatches), dBatches), "ratio", clockHost)
	embb := float64(b.Classes[ran.ClassEMBB].Dropped() - a.Classes[ran.ClassEMBB].Dropped())
	rep.add("ran.embb_drop_share", ratio(embb, float64(b.Dropped()-a.Dropped())), "ratio", clockHost)
	rep.add("ran.steals", float64(b.Steals-a.Steals), "count", clockHost)
	rep.add("ran.compile_s", b.CompileSeconds, "s", clockHost)

	var lag []float64
	lag = append(lag, run.light.lagMs...)
	lag = append(lag, run.heavy.lagMs...)
	rep.addPctl("gen.lag_ms.p99", percentile(lag, 0.99), "ms", clockHost)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.addNote("go.gc_pause_ms", float64(ms.PauseTotalNs)/1e6, "ms", clockHost,
		fmt.Sprintf("whole process so far, %d collections", ms.NumGC))
}

// hopLayers reports the fronthaul hop stages and the coordinator
// submit time from a traced fleet's spans.
func hopLayers(spans []telemetry.Span, submitUs []float64, rep *report) {
	rep.addPctl("shard.submit_us.p50", percentile(submitUs, 0.50), "us", clockHost)
	rep.addPctl("shard.submit_us.p99", percentile(submitUs, 0.99), "us", clockHost)
	rep.addPctl("fronthaul.route_us.p99", percentile(stageVals(spans, telemetry.SpanRoute, "", time.Microsecond), 0.99), "us", clockHost)
	rep.addPctl("fronthaul.encode_us.p99", percentile(stageVals(spans, telemetry.SpanEncodeWire, "", time.Microsecond), 0.99), "us", clockHost)
	rep.addPctl("fronthaul.ingest_us.p99", percentile(stageVals(spans, telemetry.SpanIngest, "", time.Microsecond), 0.99), "us", clockHost)
	link := stageVals(spans, telemetry.SpanLink, "", time.Millisecond)
	rep.addPctl("fronthaul.link_ms.p50", percentile(link, 0.50), "ms", clockHost)
	rep.addPctl("fronthaul.link_ms.p99", percentile(link, 0.99), "ms", clockHost)
}

// fleetLayers reports the shard and fronthaul metrics of a traced
// fleet run; call before the fleet stops.
func fleetLayers(sys *system, run *servingRun, rep *report) {
	hopLayers(openSpans(sys.tracers, run.openStart, run.openEnd), run.submitUs, rep)
	snapshotLayers(sys, rep)
}

// snapshotLayers times the fleet snapshot RPC and reads the span
// shipper's drop count.
func snapshotLayers(sys *system, rep *report) {
	var snap []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if _, _, err := sys.fleet.Coord.FleetSnapshot(); err != nil {
			rep.fail("fleet snapshot: %v", err)
			return
		}
		snap = append(snap, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	rep.add("shard.snapshot_ms", median(snap), "ms", clockHost)
	for _, f := range sys.fleet.Coord.Families() {
		if f.Name == "vran_trace_ship_dropped_total" && len(f.Samples) == 1 {
			rep.add("shard.spans_dropped", f.Samples[0].Value, "count", clockHost)
		}
	}
}
