package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vransim/internal/chaos"
	"vransim/internal/core"
	"vransim/internal/fronthaul"
	"vransim/internal/ran"
	"vransim/internal/simd"
	"vransim/internal/trace"
	"vransim/internal/turbo"
	"vransim/internal/uarch"
)

// The layer pass times calls into one layer at a time, outside
// any serving load: the serving decoder against the scalar reference
// decoder (the simplest correct baseline), the fronthaul frame codec,
// and the traced decode and timing simulator behind the modeled clock.

// layerBudget is the minimum wall time spent timing one call shape.
const layerBudget = 250 * time.Millisecond

// layerBatches is how many distinct noisy batches each shape decodes.
const layerBatches = 4

// noisyBatches builds layerBatches batches of lanes words of size k.
// The first word of each batch is a corrupted reception, so every
// batch decodes for as long as a noisy word needs, as a full batch
// under noisy reception does.
func noisyBatches(k, lanes int, seed int64) ([][]*turbo.LLRWord, error) {
	pool, err := ran.NewWordPool(k, lanes*layerBatches, wordAmp, rand.New(rand.NewSource(subSeed(seed, "layer", k))))
	if err != nil {
		return nil, err
	}
	inj := chaos.New(chaos.Config{Seed: subSeed(seed, "layer-noise", k), CorruptRate: 1})
	out := make([][]*turbo.LLRWord, layerBatches)
	for b := range out {
		for i := 0; i < lanes; i++ {
			w, _ := pool.Get(b*lanes + i)
			if i == 0 {
				w = inj.CorruptWord(w)
			}
			out[b] = append(out[b], w)
		}
	}
	return out, nil
}

// timeReps calls f until layerBudget has passed (and at least minReps
// times) and returns each call's duration in nanoseconds.
func timeReps(minReps int, f func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < minReps || time.Since(start) < layerBudget {
		t0 := time.Now()
		f()
		out = append(out, float64(time.Since(t0).Nanoseconds()))
	}
	return out
}

// turboLayer times the serving batch decoder at full lanes and the
// scalar reference decoder on the same noisy words, and checks that
// the two agree bit for bit. Each timed call is a pass over every
// batch (every word, for the scalar decoder): a noisy word runs more
// iterations than a clean one, so single scalar calls are bimodal.
func turboLayer(seed int64, rep *report) error {
	timedScalar := map[int]bool{}
	for _, s := range decodeShapes {
		name := fmt.Sprintf("%s.k%d", widthName(s.W), s.K)
		bd := turbo.NewBatchDecoder(s.W, core.StrategyAPCM, 32<<20)
		bd.MaxIters = 4
		lanes := bd.Lanes()
		batches, err := noisyBatches(s.K, lanes, seed)
		if err != nil {
			return err
		}
		want := make([][][]byte, len(batches))
		for b, words := range batches {
			if want[b], _, err = bd.Decode(s.K, words); err != nil { // builds and compiles the plan
				return fmt.Errorf("turbo %s: %w", name, err)
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		ns := timeReps(3, func() {
			for _, words := range batches {
				if _, _, err = bd.Decode(s.K, words); err != nil {
					return
				}
			}
		})
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return fmt.Errorf("turbo %s: %w", name, err)
		}
		calls := float64(len(ns) * len(batches))
		rep.add("turbo.decode_us_per_block."+name, median(ns)/1e3/float64(lanes*len(batches)), "us", clockHost)
		rep.add("turbo.allocs_per_decode."+name, float64(ms1.Mallocs-ms0.Mallocs)/calls, "allocs", clockHost)

		code, err := turbo.NewCode(s.K)
		if err != nil {
			return err
		}
		sd := turbo.NewDecoder(code)
		sd.MaxIters = bd.MaxIters
		flat := make([]*turbo.LLRWord, 0, lanes*len(batches))
		for _, words := range batches {
			flat = append(flat, words...)
		}
		for i, w := range flat {
			rep.attempted++
			bits, _, err := sd.Decode(w)
			if err != nil {
				return fmt.Errorf("scalar %s: %w", name, err)
			}
			if !bytes.Equal(bits, want[i/lanes][i%lanes]) {
				rep.failed++
				rep.fail("turbo %s: batch decode of word %d differs from the scalar reference", name, i)
			}
		}
		if timedScalar[s.K] {
			continue
		}
		timedScalar[s.K] = true
		ns = timeReps(3, func() {
			for _, w := range flat {
				if _, _, err = sd.Decode(w); err != nil {
					return
				}
			}
		})
		if err != nil {
			return fmt.Errorf("scalar %s: %w", name, err)
		}
		rep.add(fmt.Sprintf("turbo.scalar_us_per_block.k%d", s.K), median(ns)/1e3/float64(len(flat)), "us", clockHost)
	}
	return nil
}

// frameLayer times the fronthaul data-frame codec and checks the round
// trip; bytes_per_block is the mean wire size of the workload's blocks.
func frameLayer(spec *servingSpec, seed int64, rep *report) error {
	for _, k := range frameKs {
		pool, err := ran.NewWordPool(k, 1, wordAmp, rand.New(rand.NewSource(subSeed(seed, "frame", k))))
		if err != nil {
			return err
		}
		w, _ := pool.Get(0)
		var buf []byte
		enc := timeReps(50, func() {
			buf = fronthaul.AppendFrame(buf[:0], fronthaul.DataFrame(1, 2, 3, k, w, 0))
		})
		var got *turbo.LLRWord
		dec := timeReps(50, func() {
			f, err2 := fronthaul.DecodeFrame(buf[4:])
			if err2 == nil {
				got, err2 = f.DataWord()
			}
			err = err2
		})
		rep.attempted++
		if err != nil || !sameWord(got, w) {
			rep.failed++
			rep.fail("fronthaul k%d: data frame does not round-trip (err %v)", k, err)
		}
		rep.add(fmt.Sprintf("fronthaul.frame_encode_ns.k%d", k), median(enc), "ns", clockHost)
		rep.add(fmt.Sprintf("fronthaul.frame_decode_ns.k%d", k), median(dec), "ns", clockHost)
	}
	var bytes, weight float64
	for i, c := range spec.Cells {
		rate := spec.Light[i].Rate + spec.Heavy[i].Rate
		size := len(fronthaul.AppendFrame(nil, fronthaul.DataFrame(i, 0, 0, c.K, turbo.NewLLRWord(c.K), 0)))
		bytes += rate * float64(size)
		weight += rate
	}
	rep.add("fronthaul.bytes_per_block", bytes/weight, "bytes", clockHost)
	return nil
}

func sameWord(a, b *turbo.LLRWord) bool {
	if a == nil || b == nil || len(a.Sys) != len(b.Sys) || a.TailSys != b.TailSys || a.TailP1 != b.TailP1 {
		return false
	}
	for i := range a.Sys {
		if a.Sys[i] != b.Sys[i] || a.P1[i] != b.P1[i] || a.P2[i] != b.P2[i] {
			return false
		}
	}
	return true
}

// modelLayer times the two halves of the modeled clock separately: a
// traced emulated decode (µop trace generation) and the timing
// simulation of that trace.
func modelLayer(seed int64, rep *report) error {
	const k = 104
	w := simd.W512
	batches, err := noisyBatches(k, turbo.BlocksPerRegister(w), seed)
	if err != nil {
		return err
	}
	code, err := turbo.NewCode(k)
	if err != nil {
		return err
	}
	plat := uarch.WimpyPlatform()
	var traceNs, simNs []float64
	for _, words := range batches {
		eng := simd.NewEngine(w, simd.NewMemory(32<<20), trace.NewRecorder(1<<20))
		dec := turbo.NewMultiSIMDDecoder(code)
		dec.MaxIters = 4
		t0 := time.Now()
		if _, _, err := dec.Decode(eng, core.ByStrategy(core.StrategyAPCM), words); err != nil {
			return fmt.Errorf("traced decode: %w", err)
		}
		dt := time.Since(t0)
		insts := eng.Recorder().Insts()
		t1 := time.Now()
		uarch.Simulate(insts, plat.Core, &plat.Caches)
		ds := time.Since(t1)
		traceNs = append(traceNs, float64(dt.Nanoseconds())/float64(len(insts)))
		simNs = append(simNs, float64(ds.Nanoseconds())/float64(len(insts)))
	}
	rep.add("simd.trace_ns_per_inst", median(traceNs), "ns", clockHost)
	rep.add("uarch.sim_ns_per_inst", median(simNs), "ns", clockHost)
	return nil
}
