package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/seed"
)

// layerAcc sums per-layer work over traced compares. Step 2–4 times and
// counts are the program's own core.Metrics; builds and renders are
// timed around the public calls.
type layerAcc struct {
	ops                                   int
	buildMS, buildMB, occupied            float64
	step2MS, step3MS, step4MS, renderMS   float64
	m8KB                                  float64
	swept, useful                         float64
	hitPairs, extensions, aborted, hsps   int64
	gapped, covered, subthreshold, masked int64
}

// add folds one compare in. dbIx is the db (bank 1) index, whose
// occupied-code directory step 2 sweeps; qIx the query index.
func (a *layerAcc) add(m core.Metrics, build, render time.Duration, m8Bytes int, dbIx, qIx *index.Index, opt core.Options) {
	a.ops++
	strands := 1.0
	if opt.Strand == core.BothStrands {
		strands = 2
	}
	// The reverse-complement index of a both-strands compare is built
	// inside the compare; core reports its time as IndexTime.
	a.buildMS += ms(build + m.IndexTime)
	a.occupied += float64(len(qIx.Codes)) / float64(seed.NumCodes(qIx.W))
	a.step2MS += ms(m.Step2Time)
	a.step3MS += ms(m.Step3Time)
	a.step4MS += ms(m.Step4Time)
	a.renderMS += ms(render)
	a.m8KB += float64(m8Bytes) / 1024
	a.swept += strands * float64(len(dbIx.Codes))
	a.useful += strands * float64(commonCodes(dbIx.Codes, qIx.Codes))
	a.hitPairs += m.HitPairs
	a.extensions += m.Extensions
	a.aborted += m.Aborted
	a.hsps += int64(m.HSPs)
	a.gapped += int64(m.GappedExtensions)
	a.covered += int64(m.SkippedCovered)
	a.subthreshold += int64(m.Subthreshold)
	a.masked += int64(m.MaskedSeeds - dbIx.MaskedOut)
}

// commonCodes counts codes present in both ascending directories.
func commonCodes(a, b []seed.Code) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report writes the library-layer figures, per compare.
func (a *layerAcc) report(m metrics) {
	n := float64(max(a.ops, 1))
	m.set("dust.masked_seeds_per_op", float64(a.masked)/n, "count")
	m.set("index.build_ms_per_op", a.buildMS/n, "ms")
	m.set("index.build_mb_per_op", a.buildMB/n, "MB")
	m.set("index.occupied_code_ratio", a.occupied/n, "ratio")
	m.set("core.step2_ms_per_op", a.step2MS/n, "ms")
	m.set("core.step2_codes_swept_per_op", a.swept/n, "count")
	m.set("core.step2_useful_code_ratio", ratio(a.useful, a.swept), "ratio")
	m.set("hsp.hit_pairs_per_op", float64(a.hitPairs)/n, "count")
	m.set("hsp.aborted_ratio", ratio(float64(a.aborted), float64(a.extensions)), "ratio")
	m.set("hsp.hsps_per_op", float64(a.hsps)/n, "count")
	m.set("hsp.hsp_yield", ratio(float64(a.hsps), float64(a.hitPairs)), "ratio")
	m.set("gapped.step3_ms_per_op", a.step3MS/n, "ms")
	m.set("gapped.extensions_per_op", float64(a.gapped)/n, "count")
	m.set("gapped.us_per_extension", ratio(1000*a.step3MS, float64(a.gapped)), "us")
	m.set("align.covered_skip_ratio", ratio(float64(a.covered), float64(a.covered+a.gapped)), "ratio")
	m.set("stats.step4_ms_per_op", a.step4MS/n, "ms")
	m.set("stats.subthreshold_per_op", float64(a.subthreshold)/n, "count")
	m.set("tabular.render_ms_per_op", a.renderMS/n, "ms")
	m.set("tabular.m8_kb_per_op", a.m8KB/n, "KB")
}
