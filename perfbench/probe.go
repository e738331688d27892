package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bank"
	"repro/internal/blat"
	"repro/internal/core"
	"repro/internal/ixcache"
	"repro/internal/tabular"
	"repro/perfbench/gen"
)

// probeQueries are the small query banks a traced run replays at idle
// through an in-process scorisd: each is one request's worth of the
// per-request fixed costs the server layer adds.
const probeQueries = 16

// smallQueries cuts probeQueries one-sequence banks from the first
// query bank: its first reads, or 2 kbp slices of a long sequence.
func smallQueries(first []gen.Seq) [][]byte {
	out := make([][]byte, 0, probeQueries)
	for i := 0; i < probeQueries; i++ {
		if len(first) >= probeQueries {
			out = append(out, gen.FASTA(first[i:i+1]))
			continue
		}
		s := first[0]
		out = append(out, gen.FASTA([]gen.Seq{{ID: fmt.Sprintf("%s_%d", s.ID, i), Seq: s.Seq[i*2000 : (i+1)*2000]}}))
	}
	return out
}

// probeLayers times, at idle and against db, what a workload's own
// loop does not: the db index load from a warm store, the HTTP
// overhead over the same compare run in-process, the streamed time to
// first byte, the batch cost per query and a BLAT compare. acc, when
// non-nil, receives the library-layer figures of the replayed compares.
func probeLayers(db *bank.Bank, queries [][]byte, m metrics, acc *layerAcc) error {
	dir, err := os.MkdirTemp(workDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := warmStore(filepath.Join(dir, "store"), db); err != nil {
		return err
	}
	svc, err := startService(filepath.Join(dir, "store"), db)
	if err != nil {
		return err
	}
	defer svc.stop()
	opt := serverOptions(svc.srv)
	o1, o2 := opt.IndexOptions()
	pdb := svc.srv.Cache().Get(db, o1)
	bopt := blat.DefaultOptions()
	bdb := ixcache.Prepare(db, bopt.IndexOptions())

	var overhead, ttfb, blatMS []float64
	var want [][]byte
	names := make([]string, len(queries))
	for i, text := range queries {
		buffered, streamed := fmt.Sprintf("pb%d", i), fmt.Sprintf("ps%d", i)
		names[i] = fmt.Sprintf("pq%d", i)
		for _, n := range []string{buffered, streamed, names[i]} {
			if err := svc.c.register(n, text); err != nil {
				return err
			}
		}
		q, err := parseBank("q", text)
		if err != nil {
			return err
		}
		a0 := readAllocs()
		t0 := time.Now()
		p2 := ixcache.Prepare(q, o2)
		build := time.Since(t0)
		if acc != nil {
			acc.buildMB += float64(readAllocs().since(a0).bytes) / (1 << 20)
		}
		res, err := core.CompareWithIndex(pdb, p2, opt)
		if err != nil {
			return err
		}
		tr := time.Now()
		lib := tabular.AppendGroup(nil, res.Alignments, db, q)
		lat := time.Since(t0)
		if acc != nil {
			acc.add(res.Metrics, build, time.Since(tr), len(lib), pdb.Ix, p2.Ix, opt)
		}
		want = append(want, lib)

		t0 = time.Now()
		body, err := svc.c.compare("oris", buffered)
		if err != nil {
			return err
		}
		overhead = append(overhead, ms(time.Since(t0)-lat))
		if !bytes.Equal(body, lib) {
			return fmt.Errorf("probe query %d: buffered response differs from the library result", i)
		}
		body, first, status, err := svc.c.stream(streamed)
		if err != nil {
			return err
		}
		if status != "complete" || !bytes.Equal(body, lib) {
			return fmt.Errorf("probe query %d: streamed response (status %q) differs from the library result", i, status)
		}
		ttfb = append(ttfb, ms(first))

		t0 = time.Now()
		if _, err := blat.CompareWithIndex(bdb, q, bopt); err != nil {
			return err
		}
		blatMS = append(blatMS, ms(time.Since(t0)))
		for _, n := range []string{buffered, streamed} {
			if err := svc.c.deregister(n); err != nil {
				return err
			}
		}
	}
	t0 := time.Now()
	body, err := svc.c.batch(names)
	if err != nil {
		return err
	}
	batch := time.Since(t0)
	if !bytes.Equal(body, bytes.Join(want, nil)) {
		return fmt.Errorf("probe batch response differs from the library results")
	}
	for _, n := range names {
		if err := svc.c.deregister(n); err != nil {
			return err
		}
	}
	st, err := svc.c.stats()
	if err != nil {
		return err
	}
	m.set("ixdisk.db_load_ms", ms(svc.dbLoad), "ms")
	m.set("ixdisk.disk_hits", float64(svc.srv.Cache().DiskHits()), "count")
	m.set("server.overhead_ms_p50", median(overhead), "ms")
	m.set("server.stream_ttfb_ms_p50", median(ttfb), "ms")
	m.set("server.batch_ms_per_query", ms(batch)/float64(len(queries)), "ms")
	m.set("server.admissions", float64(st.Server.Admissions), "count")
	m.set("server.rejected", float64(st.Server.Rejected), "count")
	m.set("blat.compare_ms_p50", median(blatMS), "ms")
	return nil
}
