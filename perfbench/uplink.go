package main

import (
	"fmt"
	"math"
	"time"

	"vransim/internal/core"
	"vransim/internal/pipeline"
	"vransim/internal/simd"
	"vransim/internal/transport"
)

// The modeled uplink grid: every register width × {original, APCM}
// arrangement × a small and a mid-size UDP packet, on the default 6 dB
// QPSK channel. It is the paper's own end-to-end number, on the
// modeled clock: for a given seed it repeats exactly. The seed draws
// the packet payloads and channel noise, and each packet size from a
// narrow band (small 56-72 B, mid 240-272 B), so modeled cycles
// differ slightly between seeds but never between runs of one seed.
var gridStrategies = []core.Strategy{core.StrategyExtract, core.StrategyAPCM}

// gridBytes returns the seed's small and mid-size packet lengths.
func gridBytes(seed int64) []int {
	h := uint64(subSeed(seed, "uplink-bytes", 0))
	return []int{56 + int(h%17), 240 + int((h>>16)%33)}
}

type gridCell struct {
	W     simd.Width
	S     core.Strategy
	Bytes int
	Res   *pipeline.Result
	Err   error
}

func gridCells(seed int64) []*gridCell {
	var out []*gridCell
	for _, w := range simd.Widths {
		for _, s := range gridStrategies {
			for _, b := range gridBytes(seed) {
				out = append(out, &gridCell{W: w, S: s, Bytes: b})
			}
		}
	}
	return out
}

func (c *gridCell) config(seed int64) pipeline.Config {
	cfg := pipeline.DefaultConfig(c.W, c.S, transport.UDP, c.Bytes)
	cfg.Seed = subSeed(seed, "uplink", 0)
	return cfg
}

// simulatedInsts counts the instructions the run's timing simulations
// processed: the whole trace once plus every attributed stage window.
func simulatedInsts(r *pipeline.Result) int64 {
	n := r.Total.Insts
	for _, st := range r.Stages {
		n += int64(st.Insts)
	}
	return n
}

// runGrid runs the grid, checks every packet, re-runs one cell to
// check that modeled cycles repeat, and reports the modeled metrics
// (plus the per-stage breakdown when layers is set).
func runGrid(seed int64, rep *report, layers bool) {
	cells := gridCells(seed)
	start := time.Now()
	for _, c := range cells {
		c.Res, c.Err = pipeline.RunUplink(c.config(seed))
	}
	elapsed := time.Since(start).Seconds()

	var insts int64
	for _, c := range cells {
		rep.attempted++
		name := fmt.Sprintf("%s/%s/%dB", widthName(c.W), c.S, c.Bytes)
		switch {
		case c.Err != nil:
			rep.failed++
			rep.fail("uplink %s: %v", name, c.Err)
			return
		case !c.Res.PayloadOK || !c.Res.CRCOK:
			rep.failed++
			rep.fail("uplink %s: payload ok %v, CRC ok %v", name, c.Res.PayloadOK, c.Res.CRCOK)
		}
		insts += simulatedInsts(c.Res)
	}

	// Modeled cycles must repeat: re-run one cell (chosen by the seed)
	// and compare every cycle count.
	again := cells[int(uint64(seed)%uint64(len(cells)))]
	rep.attempted++
	if r, err := pipeline.RunUplink(again.config(seed)); err != nil || !sameCycles(r, again.Res) {
		rep.failed++
		rep.fail("uplink %s/%s/%dB: modeled cycles differ between two runs (err %v)", widthName(again.W), again.S, again.Bytes, err)
	}

	var apcm []*pipeline.Result
	for _, c := range cells {
		if c.S == core.StrategyAPCM {
			apcm = append(apcm, c.Res)
		}
	}
	rep.add("modeled_uplink_us", geomean(apcm, func(r *pipeline.Result) float64 { return r.TotalUs }), "us", clockModeled)
	rep.add("modeled_cycles_per_bit", geomean(apcm, func(r *pipeline.Result) float64 {
		return float64(r.Total.Cycles) / float64(r.InfoBits)
	}), "cycles/bit", clockModeled)
	rep.add("sim_minst_per_s", float64(insts)/elapsed/1e6, "Minst/s", clockHost)
	if layers {
		gridLayers(cells, rep)
	}
}

func sameCycles(a, b *pipeline.Result) bool {
	if a.Total.Cycles != b.Total.Cycles || a.Total.Insts != b.Total.Insts || len(a.Stages) != len(b.Stages) {
		return false
	}
	for i := range a.Stages {
		if a.Stages[i].Name != b.Stages[i].Name || a.Stages[i].Cycles != b.Stages[i].Cycles {
			return false
		}
	}
	return true
}

func geomean(rs []*pipeline.Result, f func(*pipeline.Result) float64) float64 {
	var s float64
	for _, r := range rs {
		s += math.Log(f(r))
	}
	return math.Exp(s / float64(len(rs)))
}

// stageSum folds one stage across results: summed cycles and
// instructions, and cycle-weighted store bandwidth and backend-bound
// share.
type stageSum struct {
	cycles, insts    float64
	storeBW, backend float64 // cycle-weighted sums
}

func sumStage(rs []*pipeline.Result, name string) stageSum {
	var s stageSum
	for _, r := range rs {
		st, ok := r.Stage(name)
		if !ok {
			continue
		}
		c := float64(st.Cycles)
		s.cycles += c
		s.insts += float64(st.Insts)
		s.storeBW += st.StoreBW * c
		s.backend += st.TD.BackendBound * c
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gridLayers reports the per-stage modeled breakdown of the APCM cells
// per width, and the APCM-over-original reductions the paper claims.
func gridLayers(cells []*gridCell, rep *report) {
	for _, w := range simd.Widths {
		wn := widthName(w)
		var apcm, orig []*pipeline.Result
		var bits float64
		for _, c := range cells {
			if c.W != w {
				continue
			}
			if c.S == core.StrategyAPCM {
				apcm = append(apcm, c.Res)
				bits += float64(c.Res.InfoBits)
			} else {
				orig = append(orig, c.Res)
			}
		}
		for _, s := range uplinkStages {
			rep.add(fmt.Sprintf("pipeline.cycles_per_bit.%s.%s", metricStage(s), wn),
				sumStage(apcm, s).cycles/bits, "cycles/bit", clockModeled)
		}
		arr, arrOrig := sumStage(apcm, "arrangement"), sumStage(orig, "arrangement")
		rep.add("core.arrangement_reduction."+wn, 1-ratio(arr.cycles, arrOrig.cycles), "ratio", clockModeled)
		rep.add("core.store_bits_per_cycle."+wn, ratio(arr.storeBW, arr.cycles), "bits/cycle", clockModeled)
		rep.add("uarch.backend_bound.arrangement."+wn, ratio(arr.backend, arr.cycles), "ratio", clockModeled)
		for _, s := range []string{"arrangement", "alpha", "beta+ext"} {
			st := sumStage(apcm, s)
			rep.add(fmt.Sprintf("uarch.ipc.%s.%s", metricStage(s), wn), ratio(st.insts, st.cycles), "IPC", clockModeled)
		}
		us := func(r *pipeline.Result) float64 { return r.TotalUs }
		rep.add("pipeline.apcm_latency_reduction."+wn, 1-geomean(apcm, us)/geomean(orig, us), "ratio", clockModeled)
	}
}
