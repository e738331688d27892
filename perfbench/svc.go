package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bank"
	"repro/internal/blat"
	"repro/internal/core"
	"repro/internal/ixcache"
	"repro/internal/tabular"
	"repro/perfbench/gen"
)

// Request kinds of one svc_mixed arrival.
const (
	kindBuffered = iota
	kindStreamed
	kindBatch
	kindBLAT
)

var kindNames = []string{"buffered", "streamed", "batch", "blat"}

// mixEntry is one arrival of the cycle: its request kind and how many
// reads each of its query banks holds.
type mixEntry struct{ kind, reads int }

// svcMix is the cycle of arrivals every run offers, in this order; the
// seed draws only the sequences, so every run sees the same mix and
// queueing pattern. The mix is an assumption, not a measured traffic
// log. It follows the workload's stated shape — about 10% BLAT, query
// banks of 1–32 reads skewed small — and fills in the rest plainly: the
// 29 ORIS arrivals are shared about equally by buffered, streamed and
// batch requests (10, 10, 9), a batch carries batchSize one-read banks,
// and the 23 single-query banks hold 1, 2, 4, 8, 16 or 32 reads, 8, 6,
// 4, 3, 1 and 1 times. Each kind is spaced out through the cycle.
var svcMix = [...]mixEntry{
	{kindBuffered, 1}, {kindStreamed, 2}, {kindBatch, 1}, {kindBuffered, 8},
	{kindStreamed, 1}, {kindBatch, 1}, {kindBuffered, 4}, {kindBLAT, 1},
	{kindStreamed, 2}, {kindBatch, 1}, {kindBuffered, 32}, {kindStreamed, 1},
	{kindBatch, 1}, {kindBuffered, 2}, {kindStreamed, 4}, {kindBuffered, 1},
	{kindBatch, 1}, {kindStreamed, 8}, {kindBLAT, 2}, {kindBatch, 1},
	{kindBuffered, 1}, {kindStreamed, 16}, {kindBuffered, 4}, {kindBatch, 1},
	{kindStreamed, 1}, {kindBuffered, 2}, {kindBatch, 1}, {kindStreamed, 8},
	{kindBLAT, 1}, {kindBuffered, 4}, {kindBatch, 1}, {kindStreamed, 2},
}

const (
	svcCycle  = len(svcMix)
	batchSize = 16
)

const (
	// svcFixedRate is the offered rate (arrivals/s) latency_p50_ms and
	// latency_tail_ms are read at, and the ladder's first rung: about a
	// third of the service's capacity on a 2-core host, so the latencies
	// are mostly service time rather than queueing.
	svcFixedRate = 4.5
	// svcStep is the ratio between neighbouring rungs of the ladder
	// svcFixedRate·svcStep^k: fine enough that one rung more or less is
	// well inside max_rate_rps's bound.
	svcStep  = 1.06
	svcTailP = 0.8
	// svcLimitMS is the latency limit on the tail percentile of a rung.
	svcLimitMS = 1000.0
	// svcRungCycles: every rung offers whole cycles, so every rung offers
	// the same mix; two cycles give the p80 twelve samples beyond it.
	svcRungCycles = 2
	// svcSatCycles are run closed-loop to measure throughput.
	svcSatCycles = 4
	// svcMaxProbes bounds the ladder walk, and with it the run's length.
	svcMaxProbes = 8
	// svcPlanted caps the planted pairs counted over the cycle, in cycle
	// order, so every seed counts as many.
	svcPlanted = 500
	// svcCheckEvery: the idle re-check sends every fourth arrival of
	// the cycle through all the paths that serve its kind.
	svcCheckEvery = 4
)

// svcFixedShare is the share of the run the fixed-rate phase fills;
// the saturation phase and the ladder walk take the rest.
const svcFixedShare = 0.6

// svcFixedCycles is how many whole cycles the fixed-rate phase offers
// in a run of the given length, and at least one rung's worth.
func svcFixedCycles(seconds time.Duration) int {
	return max(svcRungCycles, int(math.Round(seconds.Seconds()*svcFixedShare*svcFixedRate/float64(svcCycle))))
}

// svcMinSeconds is the shortest run svc_mixed can honour: the shortest
// whose fixed-rate share holds svcRungCycles cycles at svcFixedRate.
func svcMinSeconds() int {
	return int(math.Ceil(float64(svcRungCycles*svcCycle) / svcFixedRate / svcFixedShare))
}

// arrival is one register → request → delete cycle.
type arrival struct {
	kind  int
	banks [][]byte // FASTA text, one per query bank
	seqs  [][]gen.Seq
	truth [][]gen.Planted
	mbp   float64
}

type svcInputs struct {
	dbSeqs   []gen.Seq
	dbFASTA  []byte
	arrivals []arrival
}

// newSvcInputs makes a ~4 Mbp EST db and the arrival cycle, with query
// reads drawn from the same gene pool.
func newSvcInputs(seed int64) *svcInputs {
	pool := gen.NewPool(seed, 800, 1000, 2500)
	in := &svcInputs{}
	dbSpec := estSpec("db", seed+1, 8000)
	var dbReads []gen.Read
	in.dbSeqs, dbReads = gen.EST(dbSpec, pool)
	in.dbFASTA = gen.FASTA(in.dbSeqs)

	banks := func(e mixEntry) int {
		if e.kind == kindBatch {
			return batchSize
		}
		return 1
	}
	need := 0
	for _, e := range svcMix {
		need += banks(e) * e.reads
	}
	qSeqs, qReads := gen.EST(estSpec("sq", seed+3, need), pool)
	next, planted := 0, svcPlanted
	for _, e := range svcMix {
		a := arrival{kind: e.kind}
		for b := 0; b < banks(e); b++ {
			seqs, reads := qSeqs[next:next+e.reads], qReads[next:next+e.reads]
			next += e.reads
			var truth []gen.Planted
			if e.kind != kindBLAT { // BLAT's tiles are not W-seeds: no floor applies
				truth = estTruth(reads, dbReads, planted)
				planted -= len(truth)
			}
			a.seqs = append(a.seqs, seqs)
			a.truth = append(a.truth, truth)
			a.banks = append(a.banks, gen.FASTA(seqs))
			for _, x := range seqs {
				a.mbp += float64(len(x.Seq)) / 1e6
			}
		}
		in.arrivals = append(in.arrivals, a)
	}
	return in
}

// sample is one arrival's timing.
type sample struct {
	due, start, end time.Time
	mbp             float64
}

// loadGen runs arrivals. Open loop (rate > 0): arrival k of a rung is
// due at k/rate after the rung starts, whatever happened before. At
// most maxConns goroutines issue work, so arrivals that find both busy
// start late; their latency counts from when they were due. Closed loop
// (rate 0): each goroutine sends its next arrival as soon as its last
// one is done.
type loadGen struct {
	in     *svcInputs
	c      *client
	tr     *tracer
	seq    atomic.Int64 // arrival numbers, for unique bank names
	mu     sync.Mutex
	sums   map[int]uint64 // cycle index → hash of its response
	issued atomic.Int64   // compare and batch requests sent
}

func (g *loadGen) rung(rate float64, n int) ([]sample, error) {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, maxConns)
	// Arrival k of the rung is arrival base+k of the whole run, so the
	// cycle's order holds whichever goroutine sends it.
	base := int(g.seq.Add(int64(n))) - n
	t0 := time.Now()
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				due := time.Now()
				if rate > 0 {
					due = t0.Add(time.Duration(float64(k) / rate * float64(time.Second)))
					time.Sleep(time.Until(due))
				}
				start := time.Now()
				id := base + k
				ci := id % svcCycle
				if err := g.do(id, ci); err != nil {
					errs[w] = err
					next.Store(int64(n)) // stop issuing
					return
				}
				samples[k] = sample{due: due, start: start, end: time.Now(), mbp: g.in.arrivals[ci].mbp}
			}
		}(w)
	}
	wg.Wait()
	return samples, errors.Join(errs...)
}

// do runs one arrival: register its banks, send its request, delete
// the banks. The response is hashed and must repeat for every arrival
// of the same cycle index.
func (g *loadGen) do(id, ci int) error {
	a := &g.in.arrivals[ci]
	root := g.tr.open("arrival", id, 0)
	defer g.tr.close(root)
	names := make([]string, len(a.banks))
	sp := g.tr.open("http.register", id, root)
	for i, text := range a.banks {
		names[i] = fmt.Sprintf("a%d_%d", id, i)
		if err := g.c.register(names[i], text); err != nil {
			return err
		}
	}
	g.tr.close(sp)
	sp = g.tr.open("http."+kindNames[a.kind], id, root)
	var body []byte
	var err error
	switch a.kind {
	case kindBuffered:
		body, err = g.c.compare("oris", names[0])
	case kindStreamed:
		var status string
		body, _, status, err = g.c.stream(names[0])
		if err == nil && status != "complete" {
			err = fmt.Errorf("streamed compare ended with status %q", status)
		}
	case kindBatch:
		body, err = g.c.batch(names)
	case kindBLAT:
		body, err = g.c.compare("blat", names[0])
	}
	g.tr.close(sp)
	g.issued.Add(1)
	if err != nil {
		return err
	}
	sp = g.tr.open("http.delete", id, root)
	for _, n := range names {
		if err := g.c.deregister(n); err != nil {
			return err
		}
	}
	g.tr.close(sp)
	h := fnv.New64a()
	h.Write(body)
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.sums[ci]; !ok {
		g.sums[ci] = h.Sum64()
	} else if prev != h.Sum64() {
		return fmt.Errorf("arrival %d (%s): response differs from an earlier arrival of the same queries", id, kindNames[a.kind])
	}
	return nil
}

// rungStats summarizes one open-loop rung.
type rungStats struct {
	rate, p50, tail float64
	// lateMax is the generator's worst lateness: how long after its
	// due time an arrival was sent.
	lateMax float64
	beyond  int
	pass    bool
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func summarize(rate float64, s []sample) rungStats {
	lat := make([]float64, len(s))
	late := make([]float64, len(s))
	for i, x := range s {
		lat[i] = ms(x.end.Sub(x.due))
		late[i] = ms(x.start.Sub(x.due))
	}
	r := rungStats{rate: rate, p50: median(lat), lateMax: maxOf(late)}
	r.tail, r.beyond = percentile(lat, svcTailP)
	// A growing backlog shows as generator lateness rising from the
	// rung's first quarter to its last.
	q := len(late) / 4
	growing := median(late[len(late)-q:])-median(late[:q]) > svcLimitMS/3
	r.pass = r.tail <= svcLimitMS && !growing
	return r
}

func (r rungStats) String() string {
	return fmt.Sprintf("rate %.2f/s: p50 %.1f ms, p%.0f %.1f ms (%d beyond), generator late ≤ %.1f ms, pass %v",
		r.rate, r.p50, 100*svcTailP, r.tail, r.beyond, r.lateMax, r.pass)
}

func runSvc(cfg runConfig) (*report, error) {
	if need := svcMinSeconds(); cfg.seconds < time.Duration(need)*time.Second {
		return nil, fmt.Errorf("--seconds %.0f is too short: svc_mixed's fixed-rate phase and ladder need at least %d s",
			cfg.seconds.Seconds(), need)
	}
	in := newSvcInputs(cfg.seed)
	dir, err := os.MkdirTemp(workDir, "svc-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "store")
	// Untimed: the store a restarted service finds, already holding the
	// db index.
	db0, err := parseBank("db", in.dbFASTA)
	if err != nil {
		return nil, err
	}
	if err := warmStore(store, db0); err != nil {
		return nil, err
	}

	rep := &report{metrics: metrics{}}
	var setups []float64
	var svc *service
	var db *bank.Bank
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if db, err = parseBank("db", in.dbFASTA); err != nil {
			return nil, err
		}
		if svc, err = startService(store, db); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer svc.stop()
	if !cfg.trace {
		rep.metrics.set("setup_s", median(setups), "s")
	}

	// One untimed closed-loop cycle first, so the server's index cache
	// (32 entries) is full and the heap has grown before any timing.
	g := &loadGen{in: in, c: svc.c, sums: map[int]uint64{}}
	warm, err := g.rung(0, svcCycle)
	rep.attempted += len(warm)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := svcTraced(g, svc, db, in, cfg, rep); err != nil {
			return nil, err
		}
	} else {
		if err := svcMeasure(g, rep, cfg); err != nil {
			return nil, err
		}
	}
	st, err := svc.c.stats()
	if err != nil {
		return nil, err
	}
	if st.Server.Rejected != 0 || st.Server.Admissions != g.issued.Load() {
		return nil, fmt.Errorf("server stats: %d admissions for %d requests, %d rejected",
			st.Server.Admissions, g.issued.Load(), st.Server.Rejected)
	}
	found, floor, err := svcCheck(g, svc, db, in, cfg.fault)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.metrics.set("planted_found", float64(found), "count")
	}
	rep.notes = append(rep.notes, fmt.Sprintf("planted found %d, floor %d", found, floor))
	return rep, nil
}

// svcMeasure runs the three timed phases: the fixed rate, for the
// latency metrics; the closed-loop saturation, for throughput; and the
// ladder walk, for max_rate_rps.
func svcMeasure(g *loadGen, rep *report, cfg runConfig) error {
	a0 := readAllocs()
	ops := 0
	fixed, err := g.rung(svcFixedRate, svcFixedCycles(cfg.seconds)*svcCycle)
	ops += len(fixed)
	if err != nil {
		return err
	}
	f := summarize(svcFixedRate, fixed)
	rep.notes = append(rep.notes, "fixed "+f.String())
	if f.beyond < 10 {
		return fmt.Errorf("tail percentile has %d samples beyond it", f.beyond)
	}
	if !f.pass {
		return fmt.Errorf("the fixed rate %.1f/s already misses the %.0f ms limit", svcFixedRate, svcLimitMS)
	}

	sat, err := g.rung(0, svcSatCycles*svcCycle)
	ops += len(sat)
	if err != nil {
		return err
	}
	mbp := 0.0
	for _, x := range sat {
		mbp += x.mbp
	}
	// The phase runs from its first arrival's send to its last completion.
	busy := 0.0
	for _, x := range sat {
		busy = max(busy, x.end.Sub(sat[0].due).Seconds())
	}
	capacity := float64(len(sat)) / busy
	rep.notes = append(rep.notes, fmt.Sprintf("saturation: %.3f Mbp/s, %.2f arrivals/s", mbp/busy, capacity))

	best, n, err := svcWalk(g, capacity, rep)
	ops += n
	if err != nil {
		return err
	}
	al := readAllocs().since(a0)
	rep.attempted += ops
	rep.metrics.set("throughput_mbp_s", mbp/busy, "Mbp/s")
	rep.metrics.set("latency_p50_ms", f.p50, "ms")
	rep.metrics.set("latency_tail_ms", f.tail, "ms")
	rep.metrics.set("max_rate_rps", best, "1/s")
	rep.metrics.set("alloc_mb_per_op", float64(al.bytes)/(1<<20)/float64(ops), "MB")
	rep.metrics.set("allocs_per_op", float64(al.objects)/float64(ops), "count")
	rep.metrics.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// svcWalk finds max_rate_rps, the highest passing rung of the ladder
// svcFixedRate·svcStep^k. No rate above the closed-loop capacity can
// keep its backlog from growing: the service completes no more
// arrivals per second than that, however short a rung hides it. So the
// walk starts at the highest rung at or below the capacity and descends
// until a rung passes; rung 0 passed in the fixed-rate phase. It
// returns that rate and the arrivals it offered.
func svcWalk(g *loadGen, capacity float64, rep *report) (float64, int, error) {
	rate := func(k int) float64 { return svcFixedRate * math.Pow(svcStep, float64(k)) }
	k := max(0, int(math.Floor(math.Log(capacity/svcFixedRate)/math.Log(svcStep)+1e-9)))
	ops := 0
	for probes := 0; k > 0; probes, k = probes+1, k-1 {
		if probes == svcMaxProbes {
			return 0, ops, fmt.Errorf("%d rungs below the capacity of %.2f/s all miss the %.0f ms limit",
				svcMaxProbes, capacity, svcLimitMS)
		}
		s, err := g.rung(rate(k), svcRungCycles*svcCycle)
		ops += len(s)
		if err != nil {
			return 0, ops, err
		}
		r := summarize(rate(k), s)
		rep.notes = append(rep.notes, "ladder "+r.String())
		if r.pass {
			break
		}
	}
	return rate(k), ops, nil
}

// svcTraced offers the fixed rate untraced, then traced, and reports
// the per-layer figures: the load's own spans and server counters, and
// the idle probe for the layers inside the server.
func svcTraced(g *loadGen, svc *service, db *bank.Bank, in *svcInputs, cfg runConfig, rep *report) error {
	n := svcFixedCycles(cfg.seconds/2) * svcCycle
	plain, err := g.rung(svcFixedRate, n)
	if err != nil {
		return err
	}
	g.tr = newTracer()
	traced, err := g.rung(svcFixedRate, n)
	if err != nil {
		return err
	}
	rep.attempted += len(plain) + len(traced)
	p, t := summarize(svcFixedRate, plain), summarize(svcFixedRate, traced)
	rep.metrics.set("trace.overhead_pct", 100*(t.p50/p.p50-1), "%")
	cache := svc.srv.Cache()
	rep.metrics.set("ixcache.builds", float64(cache.Builds()), "count")
	rep.metrics.set("ixcache.lookups", float64(cache.Lookups()), "count")
	rep.metrics.set("ixcache.evictions", float64(cache.Evictions()), "count")
	rep.metrics.set("ixcache.entries_at_end", float64(cache.Len()), "count")

	t0 := time.Now()
	if _, err := parseBank("db", in.dbFASTA); err != nil {
		return err
	}
	rep.metrics.set("bank.parse_ms", ms(time.Since(t0)), "ms")
	t0 = time.Now()
	o1, _ := core.DefaultOptions().IndexOptions()
	ixcache.Prepare(db, o1)
	rep.metrics.set("index.db_build_s", time.Since(t0).Seconds(), "s")

	var small [][]byte
	for _, a := range in.arrivals {
		if a.kind != kindBatch && len(small) < probeQueries {
			small = append(small, a.banks[0])
		}
	}
	acc := &layerAcc{}
	if err := probeLayers(db, small, rep.metrics, acc); err != nil {
		return err
	}
	acc.report(rep.metrics)
	st, err := svc.c.stats()
	if err != nil {
		return err
	}
	rep.metrics.set("server.admissions", float64(st.Server.Admissions), "count")
	rep.metrics.set("server.rejected", float64(st.Server.Rejected), "count")
	path := traceFile(cfg)
	if err := g.tr.write(path); err != nil {
		return err
	}
	rep.notes = append(rep.notes, "spans written to "+path)
	return nil
}

// svcCheck replays every arrival of the cycle at idle and requires the
// service's answers — buffered, streamed and batch — to be the bytes of
// the library result rendered with tabular, and the load's responses to
// hash the same. The oracle checks every ORIS alignment; planted
// homologies are counted over the ORIS arrivals.
func svcCheck(g *loadGen, svc *service, db *bank.Bank, in *svcInputs, fault string) (found, floor int, err error) {
	opt := serverOptions(svc.srv)
	o1, o2 := opt.IndexOptions()
	pdb := svc.srv.Cache().Get(db, o1)
	bopt := blat.DefaultOptions()
	bdb := svc.srv.Cache().Get(db, bopt.IndexOptions())
	for ci := range in.arrivals {
		a := &in.arrivals[ci]
		var want []byte
		for bi, text := range a.banks {
			q, err := parseBank("q", text)
			if err != nil {
				return 0, 0, err
			}
			if a.kind == kindBLAT {
				res, err := blat.CompareWithIndex(bdb, q, bopt)
				if err != nil {
					return 0, 0, err
				}
				want = tabular.AppendGroup(want, res.Alignments, db, q)
				continue
			}
			res, err := core.CompareWithIndex(pdb, ixcache.Prepare(q, o2), opt)
			if err != nil {
				return 0, 0, err
			}
			want = tabular.AppendGroup(want, res.Alignments, db, q)
			alns := toOracle(res.Alignments, db, q)
			if fault == "alignment" && len(alns) > 0 && found == 0 {
				alns[0].Score++
			}
			if err := checkAlignments(alns, in.dbSeqs, a.seqs[bi], db.TotalBases(), opt); err != nil {
				return 0, 0, fmt.Errorf("arrival %d: %w", ci, err)
			}
			found += plantedFound(a.truth[bi], alns)
			floor += plantedFloor(a.truth[bi], opt.W)
		}
		if fault == "response" && ci == 0 {
			want = append(want, '\n')
		}
		if err := checkArrival(g, svc, ci, want, ci%svcCheckEvery == 0); err != nil {
			return 0, 0, fmt.Errorf("arrival %d (%s): %w", ci, kindNames[a.kind], err)
		}
	}
	if found < floor {
		return found, floor, fmt.Errorf("planted homologies found %d < floor %d", found, floor)
	}
	return found, floor, nil
}

// checkArrival compares the load's recorded response for arrival ci
// with want and, when resend is set, sends the arrival through every
// path that serves its kind and compares each answer too.
func checkArrival(g *loadGen, svc *service, ci int, want []byte, resend bool) error {
	a := &g.in.arrivals[ci]
	h := fnv.New64a()
	h.Write(want)
	if sum, ok := g.sums[ci]; ok && sum != h.Sum64() {
		return errors.New("a response under load differs from the library result")
	}
	if !resend {
		return nil
	}
	names := make([]string, len(a.banks))
	for i, text := range a.banks {
		names[i] = fmt.Sprintf("check%d_%d", ci, i)
		if err := svc.c.register(names[i], text); err != nil {
			return err
		}
	}
	defer func() {
		for _, n := range names {
			svc.c.deregister(n)
		}
	}()
	got := map[string][]byte{}
	var err error
	switch a.kind {
	case kindBLAT:
		got["blat"], err = svc.c.compare("blat", names[0])
	case kindBatch:
		before, err := svc.c.stats()
		if err != nil {
			return err
		}
		if got["batch"], err = svc.c.batch(names); err != nil {
			return err
		}
		after, err := svc.c.stats()
		if err != nil {
			return err
		}
		if d := after.Server.Admissions - before.Server.Admissions; d != 1 {
			return fmt.Errorf("batch took %d admissions", d)
		}
	default:
		if got["buffered"], err = svc.c.compare("oris", names[0]); err != nil {
			return err
		}
		var status string
		got["streamed"], _, status, err = svc.c.stream(names[0])
		if err == nil && status != "complete" {
			err = fmt.Errorf("stream ended with X-Scoris-Status %q", status)
		}
	}
	if err != nil {
		return err
	}
	for path, b := range got {
		if !bytes.Equal(b, want) {
			return fmt.Errorf("%s response differs from the library result", path)
		}
	}
	return nil
}
