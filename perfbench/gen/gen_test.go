package gen

import (
	"bytes"
	"testing"
)

var (
	testMut   = Mutation{Sub: 0.02, Indel: 0.004}
	testSpecs = func(seed int64) (ESTSpec, ESTSpec) {
		db := ESTSpec{Name: "db", Seed: seed, NumSeqs: 300, MinLen: 350, MaxLen: 650,
			GeneFraction: 0.9, Mut: testMut, PolyAFraction: 0.2, ReverseFraction: 0.1}
		q := db
		q.Name, q.Seed, q.NumSeqs = "q", seed+1, 80
		return db, q
	}
	testGenome = GenomeSpec{
		Seed: 7, Chroms: 2, ChromLen: 60_000,
		RepeatFamilies: 3, RepeatLen: 300, RepeatCopies: 5, RepeatMut: Mutation{Sub: 0.1, Indel: 0.01},
		LowComplexity: 10,
		Segments:      2, SegmentLen: 20_000,
		Plants: 4, PlantMinLen: 300, PlantMaxLen: 1500,
		PlantMuts: []Mutation{{Sub: 0.05, Indel: 0.005}, {Sub: 0.08, Indel: 0.01}},
	}
)

// agreement is the fraction of the 8-mers of a's first n bases that
// occur in b's first n+8 bases: high when both start on the same
// template base (an indel costs only the 8-mers across it), near zero
// otherwise.
func agreement(a, b []byte, n int) float64 {
	const k = 8
	in := map[string]bool{}
	for i := 0; i+k <= min(n+k, len(b)); i++ {
		in[string(b[i:i+k])] = true
	}
	found := 0
	for i := 0; i+k <= n; i++ {
		if in[string(a[i:i+k])] {
			found++
		}
	}
	return float64(found) / float64(n-k+1)
}

func TestESTTruthPointsAtGeneBases(t *testing.T) {
	pool := NewPool(1, 40, 1200, 2400)
	spec, _ := testSpecs(3)
	seqs, reads := EST(spec, pool)
	checked := 0
	for i, r := range reads {
		if r.Gene < 0 {
			continue
		}
		gene := pool.Genes[r.Gene][r.GeneLo:r.GeneHi]
		fwd := seqs[i].Seq
		if r.Reverse {
			fwd = RevComp(fwd)
		}
		same, kept := 0, 0
		for g, at := range r.At {
			if at < 0 {
				continue
			}
			kept++
			if fwd[at] == gene[g] {
				same++
			}
		}
		// Substitutions (2%) and inserted-base slips (0.2%) are the
		// only disagreements.
		if f := float64(same) / float64(kept); f < 0.95 {
			t.Fatalf("read %s: %.3f of its gene bases found at their recorded offsets", r.ID, f)
		}
		checked++
	}
	if checked < 200 {
		t.Fatalf("only %d gene-carrying reads", checked)
	}
}

func TestESTPairsSpanSharedBases(t *testing.T) {
	pool := NewPool(1, 40, 1200, 2400)
	dbSpec, qSpec := testSpecs(3)
	dbSeqs, dbReads := EST(dbSpec, pool)
	qSeqs, qReads := EST(qSpec, pool)
	pairs := ESTPairs(qReads, dbReads, testMut.Identity(), 150)
	if len(pairs) < 50 {
		t.Fatalf("only %d planted pairs", len(pairs))
	}
	bad := 0
	for _, p := range pairs {
		q := qSeqs[p.Query].Seq[p.QStart:p.QEnd]
		d := dbSeqs[p.DB].Seq[p.DBStart:p.DBEnd]
		if p.Minus {
			q = RevComp(q)
		}
		if len(q) < 140 || len(d) < 140 {
			t.Fatalf("pair %+v: span shorter than the minimum overlap", p)
		}
		// Both spans start on the same gene base, up to mutation.
		if agreement(q, d, 100) < 0.15 {
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d planted pairs start on different bases", bad, len(pairs))
	}
}

func TestGenomeTruthPointsAtPlantedBases(t *testing.T) {
	db, queries, truth := Genome(testGenome)
	if len(truth) != testGenome.Segments*testGenome.Plants {
		t.Fatalf("%d plants recorded", len(truth))
	}
	for _, p := range truth {
		q := queries[p.Query].Seq[p.QStart:p.QEnd]
		d := db[p.DB].Seq[p.DBStart:p.DBEnd]
		if p.Minus {
			q = RevComp(q)
		}
		if agreement(q, d, 100) < 0.2 {
			t.Fatalf("plant %+v: its first bases do not match the db", p)
		}
		other := db[p.DB].Seq[(p.DBStart+5000)%(testGenome.ChromLen-100):]
		if agreement(q, other, 100) > 0.05 {
			t.Fatalf("plant %+v matches unrelated db bases", p)
		}
	}
}

func TestSameSeedSameBytes(t *testing.T) {
	gen := func(seed int64) []byte {
		pool := NewPool(seed, 40, 1200, 2400)
		dbSpec, qSpec := testSpecs(seed)
		d, _ := EST(dbSpec, pool)
		q, _ := EST(qSpec, pool)
		g := testGenome
		g.Seed = seed
		gdb, gq, _ := Genome(g)
		out := FASTA(d)
		for _, s := range [][]Seq{q, gdb, gq} {
			out = append(out, FASTA(s)...)
		}
		return out
	}
	a, b, c := gen(11), gen(11), gen(12)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed gave different bytes")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same bytes")
	}
}
