package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/bank"
	"repro/internal/core"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/ixcache"
	"repro/internal/tabular"
	"repro/perfbench/gen"
)

// libInputs is a closed-loop workload: one db bank and a fixed cycle of
// query banks, compared the way `scoris -d db -i q1 -i q2 …` does.
type libInputs struct {
	opt     core.Options
	dbSeqs  []gen.Seq
	dbFASTA []byte
	queries [][]gen.Seq
	qFASTA  [][]byte
	truth   [][]gen.Planted // per query bank
	// tailP is the workload's fixed tail percentile.
	tailP float64
}

// estMut diverges each EST read from its gene; two reads of one gene
// differ by about twice as much.
var estMut = gen.Mutation{Sub: 0.02, Indel: 0.004}

const estMinOverlap = 150

func estSpec(name string, seed int64, n int) gen.ESTSpec {
	return gen.ESTSpec{Name: name, Seed: seed, NumSeqs: n, MinLen: 350, MaxLen: 650,
		GeneFraction: 0.85, Mut: estMut, PolyAFraction: 0.2, ReverseFraction: 0.1}
}

func estPool(seed int64) *gen.Pool { return gen.NewPool(seed, 400, 1000, 2500) }

// estInputs: a ~1.5 Mbp db of 3000 reads and a cycle of eight ~125 kbp
// query banks of 250 reads, all from one gene pool. The search is
// single-strand (the paper's mode), so only same-orientation pairs are
// planted truth.
func estInputs(seed int64) *libInputs {
	pool := estPool(seed)
	in := &libInputs{opt: core.DefaultOptions(), tailP: 0.9}
	var dbReads []gen.Read
	in.dbSeqs, dbReads = gen.EST(estSpec("db", seed+1, 3000), pool)
	in.dbFASTA = gen.FASTA(in.dbSeqs)
	for i := 0; i < 8; i++ {
		qs, qr := gen.EST(estSpec(fmt.Sprintf("q%d", i), seed+100+int64(i), 250), pool)
		in.queries = append(in.queries, qs)
		in.qFASTA = append(in.qFASTA, gen.FASTA(qs))
		in.truth = append(in.truth, estTruth(qr, dbReads, estPlantedPerBank))
	}
	return in
}

// estPlantedPerBank caps the planted pairs counted per query bank, so
// planted_found counts the same number of homologies on every seed
// (a bank of 250 reads holds about 600).
const estPlantedPerBank = 400

// estTruth lists the first n same-orientation planted pairs between
// query and db reads: the search is single-strand, as in the paper.
func estTruth(query, db []gen.Read, n int) []gen.Planted {
	var plus []gen.Planted
	for _, p := range gen.ESTPairs(query, db, 1-2*(estMut.Sub+estMut.Indel), estMinOverlap) {
		if !p.Minus && len(plus) < n {
			plus = append(plus, p)
		}
	}
	return plus
}

// genomeSpec: two 1 Mbp chromosomes with repeat families and
// low-complexity tracts; four 0.4 Mbp query segments carrying the same
// families and tracts, each planted with 24 copies of db regions at 9%
// and 14% divergence, half on the minus strand. A segment cut whole
// from the db would align end to end and make step 3 most of the work.
func genomeSpec(seed int64) gen.GenomeSpec {
	return gen.GenomeSpec{
		Seed: seed, Chroms: 2, ChromLen: 1_000_000,
		RepeatFamilies: 12, RepeatLen: 300, RepeatCopies: 60, RepeatMut: gen.Mutation{Sub: 0.22, Indel: 0.02},
		LowComplexity: 400,
		Segments:      4, SegmentLen: 400_000,
		Plants: 24, PlantMinLen: 300, PlantMaxLen: 1500,
		PlantMuts: []gen.Mutation{{Sub: 0.08, Indel: 0.01}, {Sub: 0.12, Indel: 0.02}},
	}
}

func genomeInputs(seed int64) *libInputs {
	in := &libInputs{opt: core.DefaultOptions(), tailP: 0.8}
	in.opt.Strand = core.BothStrands
	var segs []gen.Seq
	var truth []gen.Planted
	in.dbSeqs, segs, truth = gen.Genome(genomeSpec(seed))
	in.dbFASTA = gen.FASTA(in.dbSeqs)
	for i, s := range segs {
		in.queries = append(in.queries, []gen.Seq{s})
		in.qFASTA = append(in.qFASTA, gen.FASTA([]gen.Seq{s}))
		var mine []gen.Planted
		for _, p := range truth {
			if p.Query == i {
				p.Query = 0 // each segment is its own one-sequence bank
				mine = append(mine, p)
			}
		}
		in.truth = append(in.truth, mine)
	}
	return in
}

// parseBank is the program-side load of FASTA text.
func parseBank(name string, text []byte) (*bank.Bank, error) {
	recs, err := fasta.ParseAll(text)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no sequences", name)
	}
	return bank.New(name, recs), nil
}

// libSession is the set-up state of a library workload.
type libSession struct {
	in    *libInputs
	db    *bank.Bank
	dbIx  *index.Index
	cache *ixcache.Cache
}

// setupLib parses the db and builds its index — the program-side
// set-up, timed by the caller.
func setupLib(in *libInputs, tr *tracer) (*libSession, error) {
	sp := tr.open("setup", 0, 0)
	defer tr.close(sp)
	t := tr.open("bank.parse", 0, sp)
	db, err := parseBank("db", in.dbFASTA)
	tr.close(t)
	if err != nil {
		return nil, err
	}
	// Bound 2 as in the scoris CLI: the db index stays, each query's
	// single-use index evicts the previous one.
	cache := ixcache.New(2)
	o1, _ := in.opt.IndexOptions()
	t = tr.open("index.db_build", 0, sp)
	p := cache.Get(db, o1)
	tr.close(t)
	return &libSession{in: in, db: db, dbIx: p.Ix, cache: cache}, nil
}

// opResult is what one compare produced.
type opResult struct {
	q    *bank.Bank
	res  *core.Result
	m8   []byte
	mbp  float64
	took time.Duration
}

// libOp runs one query bank through the program: parse, index build
// (via the cache, as the CLI does), steps 2–4 and m8 rendering. With a
// tracer it records a span per layer call and feeds acc.
func (s *libSession) libOp(op, qi int, m8 []byte, tr *tracer, acc *layerAcc) (opResult, error) {
	start := time.Now()
	root := tr.open("op", op, 0)
	sp := tr.open("bank.parse", op, root)
	q, err := parseBank(fmt.Sprintf("q%d", qi), s.in.qFASTA[qi])
	tr.close(sp)
	if err != nil {
		return opResult{}, err
	}
	var a0 allocSnapshot
	if acc != nil {
		a0 = readAllocs()
	}
	sp = tr.open("index.build", op, root)
	tb := time.Now()
	p1, p2, err := core.Prepare(s.cache, s.db, q, s.in.opt)
	build := time.Since(tb)
	tr.close(sp)
	if err != nil {
		return opResult{}, err
	}
	if acc != nil {
		acc.buildMB += float64(readAllocs().since(a0).bytes) / (1 << 20)
	}
	tc := time.Now()
	res, err := core.CompareWithIndex(p1, p2, s.in.opt)
	te := time.Now()
	if err != nil {
		return opResult{}, err
	}
	if tr != nil {
		c := tr.record("core.compare", op, root, tc, te, false)
		// Steps 2–4 as the program times them, laid end to end.
		m := res.Metrics
		at := tc
		for _, st := range []struct {
			name string
			d    time.Duration
		}{{"index.rc_build", m.IndexTime}, {"core.step2", m.Step2Time}, {"gapped.step3", m.Step3Time}, {"stats.step4", m.Step4Time}} {
			tr.record(st.name, op, c, at, at.Add(st.d), true)
			at = at.Add(st.d)
		}
	}
	sp = tr.open("tabular.render", op, root)
	tr0 := time.Now()
	m8 = tabular.AppendGroup(m8[:0], res.Alignments, s.db, q)
	render := time.Since(tr0)
	tr.close(sp)
	took := time.Since(start)
	tr.close(root)
	if acc != nil {
		acc.add(res.Metrics, build, render, len(m8), s.dbIx, p2.Ix, s.in.opt)
	}
	return opResult{q: q, res: res, m8: m8, mbp: q.Mbp(), took: took}, nil
}

// runLib is a closed-loop run: one caller, whole rounds of the query
// cycle, until the time is up and the tail percentile is resolved.
func runLib(in *libInputs, cfg runConfig) (*report, error) {
	rep := &report{metrics: metrics{}}
	var setups []float64
	var s *libSession
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		s, err = setupLib(in, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if !cfg.trace {
		rep.metrics.set("setup_s", median(setups), "s")
	}

	firstRound := make([]opResult, len(in.queries))
	sums := make([]uint64, len(in.queries))
	check := func(i, qi int, r opResult) error {
		h := fnv.New64a()
		h.Write(r.m8)
		if i < len(in.queries) {
			firstRound[qi] = r
			firstRound[qi].m8 = append([]byte(nil), r.m8...)
			sums[qi] = h.Sum64()
		} else if h.Sum64() != sums[qi] {
			return fmt.Errorf("query bank %d: output differs between rounds", qi)
		}
		return nil
	}

	if cfg.trace {
		if err := runLibTraced(s, cfg, rep, check); err != nil {
			return nil, err
		}
	} else if err := runLibTimed(s, cfg, rep, check); err != nil {
		return nil, err
	}
	found, floor, err := checkLibRound(s, firstRound, cfg.fault)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.metrics.set("planted_found", float64(found), "count")
	}
	rep.notes = append(rep.notes, fmt.Sprintf("planted found %d, floor %d", found, floor))
	return rep, nil
}

// collect runs a full collection between rounds, outside any timed
// operation. Each round then starts from the same heap, so the
// collector's pacing repeats round after round instead of settling
// into a different phase in each run, and the peak RSS, which depends
// on where collections fall between the large index allocations, reads
// the same from run to run.
func collect() { runtime.GC() }

// runLibTimed is the untraced closed loop behind the end-to-end
// metrics.
func runLibTimed(s *libSession, cfg runConfig, rep *report, check func(i, qi int, r opResult) error) error {
	in := s.in
	var m8 []byte
	var lat []float64
	// Throughput and rate count the time spent in operations, not the
	// output checks between them.
	var mbp, busy float64
	a0 := readAllocs()
	t0 := time.Now()
	ops := 0
	for ops < minSamples(in.tailP) || time.Since(t0) < cfg.seconds {
		collect()
		for qi := range in.queries {
			r, err := s.libOp(ops, qi, m8, nil, nil)
			if err != nil {
				return err
			}
			m8 = r.m8
			if err := check(ops, qi, r); err != nil {
				return err
			}
			lat = append(lat, ms(r.took))
			mbp += r.mbp
			busy += r.took.Seconds()
			ops++
		}
	}
	al := readAllocs().since(a0)
	rep.attempted = ops
	tail, beyond := percentile(lat, in.tailP)
	if beyond < 10 {
		return fmt.Errorf("tail percentile has %d samples beyond it", beyond)
	}
	rep.metrics.set("throughput_mbp_s", mbp/busy, "Mbp/s")
	rep.metrics.set("latency_p50_ms", median(lat), "ms")
	rep.metrics.set("latency_tail_ms", tail, "ms")
	rep.metrics.set("max_rate_rps", float64(ops)/busy, "1/s")
	rep.metrics.set("alloc_mb_per_op", float64(al.bytes)/(1<<20)/float64(ops), "MB")
	rep.metrics.set("allocs_per_op", float64(al.objects)/float64(ops), "count")
	rep.metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	rep.notes = append(rep.notes, fmt.Sprintf("%d ops, tail p%.0f with %d beyond", ops, 100*in.tailP, beyond))
	return nil
}

// checkLibRound runs the oracle over every alignment of one round (each
// later round was required to repeat its bytes) and counts the planted
// homologies found.
func checkLibRound(s *libSession, round []opResult, fault string) (found, floor int, err error) {
	in := s.in
	for qi, r := range round {
		alns := toOracle(r.res.Alignments, s.db, r.q)
		if fault == "alignment" && qi == 0 && len(alns) > 0 {
			alns[0].Score++
		}
		if err := checkAlignments(alns, in.dbSeqs, in.queries[qi], s.db.TotalBases(), in.opt); err != nil {
			return 0, 0, fmt.Errorf("query bank %d: %w", qi, err)
		}
		found += plantedFound(in.truth[qi], alns)
		floor += plantedFloor(in.truth[qi], in.opt.W)
	}
	if found < floor {
		return found, floor, fmt.Errorf("planted homologies found %d < floor %d", found, floor)
	}
	return found, floor, nil
}

// tracedMinOps is the fewest operations each half of a traced run
// takes its median over.
const tracedMinOps = 20

// runLibTraced runs half the time untraced and half traced, reports the
// per-layer figures from the traced half and the tracing overhead as
// the gap between the two halves' median latencies.
func runLibTraced(s *libSession, cfg runConfig, rep *report, check func(i, qi int, r opResult) error) error {
	tr := newTracer()
	// One traced set-up for the db-side spans.
	if _, err := setupLib(s.in, tr); err != nil {
		return err
	}
	self := tr.selfMS()
	dbParse, dbBuild := self["bank.parse"], self["index.db_build"]
	half := cfg.seconds / 2
	var m8 []byte
	phase := func(tr *tracer, acc *layerAcc, opBase int) ([]float64, int, error) {
		var lat []float64
		t0 := time.Now()
		ops := 0
		for ops < tracedMinOps || time.Since(t0) < half {
			collect()
			for qi := range s.in.queries {
				r, err := s.libOp(opBase+ops, qi, m8, tr, acc)
				if err != nil {
					return nil, 0, err
				}
				m8 = r.m8
				if err := check(opBase+ops, qi, r); err != nil {
					return nil, 0, err
				}
				lat = append(lat, ms(r.took))
				ops++
			}
		}
		return lat, ops, nil
	}
	plain, n1, err := phase(nil, nil, 0)
	if err != nil {
		return err
	}
	acc := &layerAcc{}
	traced, n2, err := phase(tr, acc, n1)
	if err != nil {
		return err
	}
	rep.attempted = n1 + n2
	acc.report(rep.metrics)
	rep.metrics.set("bank.parse_ms", dbParse, "ms")
	rep.metrics.set("index.db_build_s", dbBuild/1000, "s")
	rep.metrics.set("ixcache.builds", float64(s.cache.Builds()), "count")
	rep.metrics.set("ixcache.lookups", float64(s.cache.Lookups()), "count")
	rep.metrics.set("ixcache.evictions", float64(s.cache.Evictions()), "count")
	rep.metrics.set("ixcache.entries_at_end", float64(s.cache.Len()), "count")
	rep.metrics.set("trace.overhead_pct", 100*(median(traced)/median(plain)-1), "%")
	if err := probeLayers(s.db, smallQueries(s.in.queries[0]), rep.metrics, nil); err != nil {
		return err
	}
	path := traceFile(cfg)
	if err := tr.write(path); err != nil {
		return err
	}
	rep.notes = append(rep.notes, "spans written to "+path)
	return nil
}
