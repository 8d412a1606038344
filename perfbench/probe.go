package main

import (
	"fmt"
	"time"

	"vransim/internal/ran"
)

// A probe is a small standalone deployment the traced run uses for a
// layer the workload itself does not put on its path: cell-serve has no
// fronthaul, and in fleet-fronthaul the shard worker, not the
// benchmark, calls Runtime.Submit. It serves two class-blind cells of
// the smallest LTE block (K=40) at the workload's width, one worker,
// traced, at a light paced load, so the timed calls see no backlog.

const (
	probeK      = 40
	probeRate   = 1000 // blocks/s per cell
	probeBlocks = 1500
)

func probeSpec(spec *servingSpec, shards int) *servingSpec {
	cells := []cellSpec{{K: probeK, Class: ran.ClassEMBB, Window: 2}, {K: probeK, Class: ran.ClassEMBB, Window: 2}}
	load := []cellLoad{{Rate: probeRate}, {Rate: probeRate}}
	return &servingSpec{
		Width: spec.Width, Cells: cells, Shards: shards, Workers: 1,
		QueueDepth: 64, BatchWindow: time.Millisecond,
		Deadline: 100 * time.Millisecond, URLLCDeadline: 100 * time.Millisecond,
		Light: load, Heavy: load,
	}
}

// runProbe serves the probe load open-loop with every submit timed and
// returns the still-running deployment (the caller stops it).
func runProbe(ps *servingSpec, seed int64, rep *report) (*system, *servingRun, error) {
	sys, l, _, err := setUp(ps, seed, true)
	if err != nil {
		return nil, nil, fmt.Errorf("probe setup: %w", err)
	}
	before := boundary{c: sys.counters(), at: time.Now()}
	dur := time.Duration(float64(probeBlocks) / (2 * probeRate) * float64(time.Second))
	run := &servingRun{openStart: time.Now()}
	sp, us := l.openLoop(sys, schedule(ps.Light, dur, seed, "probe"), true)
	if _, err := sys.finishPhase(l, rep, "probe", sp, before); err != nil {
		sys.stop()
		return nil, nil, err
	}
	run.openEnd = time.Now()
	run.submitUs = us
	run.light = l.outcome(sp, ps.classOf, ps.kOf, ps.deadline)
	checkOutcomes(rep, l, run.light)
	return sys, run, nil
}

// runtimeProbe times Runtime.Submit on a single runtime.
func runtimeProbe(spec *servingSpec, seed int64, rep *report) error {
	sys, run, err := runProbe(probeSpec(spec, 0), seed, rep)
	if err != nil {
		return err
	}
	rep.addPctl("ran.submit_us.p50", percentile(run.submitUs, 0.50), "us", clockHost)
	rep.addPctl("ran.submit_us.p99", percentile(run.submitUs, 0.99), "us", clockHost)
	return sys.stop()
}

// fleetProbe measures the shard and fronthaul layers on a one-shard
// fleet.
func fleetProbe(spec *servingSpec, seed int64, rep *report) error {
	sys, run, err := runProbe(probeSpec(spec, 1), seed, rep)
	if err != nil {
		return err
	}
	fleetLayers(sys, run, rep)
	return sys.stop()
}
