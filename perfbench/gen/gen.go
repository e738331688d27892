// Package gen makes the benchmark's inputs from a seed and records the
// homologies it plants, so sensitivity can be counted against a known
// truth rather than against another program's output.
//
// Two shapes are generated, following the paper's data sets:
//
//   - EST banks: short reads, each a mutated window of a gene from a
//     shared pool (or random background), some poly-A tailed and some
//     reverse-oriented. Each read records its gene window and the
//     position of every gene base inside the read, so the homology
//     between any two reads of one gene is known base by base.
//   - Genome banks: long chromosome-like sequences with repeat families
//     and low-complexity tracts. Query segments share the db's repeat
//     families and are planted with diverged copies cut from the db;
//     each planted copy records its db coordinates, strand and
//     divergence.
//
// Everything is driven by math/rand sources seeded from the caller's
// seed, so the same seed gives byte-identical FASTA text.
package gen

import (
	"bytes"
	"fmt"
	"math/rand"
)

var letters = []byte("ACGT")

// Mutation is a per-base divergence model. Substitutions always change
// the base; an indel is an insertion or a deletion with equal odds.
type Mutation struct {
	Sub   float64
	Indel float64
}

// Identity is the expected fraction of identical columns between a
// copy and its template, counting each indel as one lost column.
func (m Mutation) Identity() float64 { return 1 - m.Sub - m.Indel }

// mutate copies tpl under m and returns the copy with, for every
// template base, its offset in the copy (-1 when deleted).
func mutate(rng *rand.Rand, tpl []byte, m Mutation) ([]byte, []int32) {
	out := make([]byte, 0, len(tpl)+len(tpl)/32+4)
	at := make([]int32, len(tpl))
	for i, c := range tpl {
		r := rng.Float64()
		switch {
		case r < m.Indel/2: // deletion
			at[i] = -1
		case r < m.Indel: // insertion after the base
			at[i] = int32(len(out))
			out = append(out, c, letters[rng.Intn(4)])
		case r < m.Indel+m.Sub:
			at[i] = int32(len(out))
			out = append(out, letters[(baseIndex(c)+1+rng.Intn(3))&3])
		default:
			at[i] = int32(len(out))
			out = append(out, c)
		}
	}
	return out, at
}

func baseIndex(c byte) int {
	switch c {
	case 'C':
		return 1
	case 'G':
		return 2
	case 'T':
		return 3
	}
	return 0
}

func randSeq(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(4)]
	}
	return b
}

// RevComp returns the reverse complement of ASCII DNA.
func RevComp(s []byte) []byte {
	out := make([]byte, len(s))
	for i, c := range s {
		out[len(s)-1-i] = letters[3-baseIndex(c)]
	}
	return out
}

// Seq is one generated FASTA record.
type Seq struct {
	ID  string
	Seq []byte
}

// FASTA renders records as FASTA text, 80 columns per line.
func FASTA(seqs []Seq) []byte {
	var buf bytes.Buffer
	for _, s := range seqs {
		fmt.Fprintf(&buf, ">%s\n", s.ID)
		for i := 0; i < len(s.Seq); i += 80 {
			j := i + 80
			if j > len(s.Seq) {
				j = len(s.Seq)
			}
			buf.Write(s.Seq[i:j])
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// Pool is a set of ancestral genes EST reads are sampled from.
type Pool struct {
	Genes [][]byte
}

// NewPool makes n genes with lengths evenly spread over [minLen,
// maxLen), so every seed's pool has the same length profile.
func NewPool(seed int64, n, minLen, maxLen int) *Pool {
	rng := rand.New(rand.NewSource(seed))
	p := &Pool{Genes: make([][]byte, n)}
	for i := range p.Genes {
		p.Genes[i] = randSeq(rng, minLen+i*(maxLen-minLen)/n)
	}
	return p
}

// ESTSpec shapes one EST bank.
type ESTSpec struct {
	Name    string
	Seed    int64
	NumSeqs int
	// Reads are MinLen..MaxLen bases before any tail.
	MinLen, MaxLen int
	// GeneFraction of reads carry a gene window; the rest are
	// background.
	GeneFraction    float64
	Mut             Mutation
	PolyAFraction   float64
	ReverseFraction float64
}

// Read is the truth about one EST read.
type Read struct {
	ID string
	// Gene is the pool gene the read carries, or -1 for background.
	Gene int
	// GeneLo, GeneHi bound the gene window the read was copied from.
	GeneLo, GeneHi int
	// At[i] is the read offset (in forward orientation, before any
	// reversal) of gene base GeneLo+i, or -1 when it was deleted.
	At []int32
	// Len is the read length including its tail; the tail follows the
	// copied window in forward orientation.
	Len int
	// Reverse marks reads emitted reverse-complemented.
	Reverse bool
}

// Offset maps a forward-orientation offset to the emitted read's
// coordinate of the same base.
func (r *Read) Offset(fwd int32) int32 {
	if r.Reverse {
		return int32(r.Len) - 1 - fwd
	}
	return fwd
}

// EST generates an EST bank from the pool with its per-read truth.
// Gene-carrying reads take the genes in a seeded random order, every
// gene once before any gene twice, so each gene is carried by as many
// reads as any other (give or take one): how much two banks share then
// depends on the pool, not on the luck of the draw.
func EST(spec ESTSpec, pool *Pool) ([]Seq, []Read) {
	rng := rand.New(rand.NewSource(spec.Seed))
	seqs := make([]Seq, 0, spec.NumSeqs)
	reads := make([]Read, 0, spec.NumSeqs)
	var genes []int
	for i := 0; i < spec.NumSeqs; i++ {
		l := spec.MinLen + rng.Intn(spec.MaxLen-spec.MinLen)
		rd := Read{ID: fmt.Sprintf("%s_%05d", spec.Name, i), Gene: -1}
		var s []byte
		if rng.Float64() < spec.GeneFraction {
			if len(genes) == 0 {
				genes = rng.Perm(len(pool.Genes))
			}
			g := genes[0]
			genes = genes[1:]
			gene := pool.Genes[g]
			wl := l
			if wl > len(gene) {
				wl = len(gene)
			}
			lo := rng.Intn(len(gene) - wl + 1)
			s, rd.At = mutate(rng, gene[lo:lo+wl], spec.Mut)
			rd.Gene, rd.GeneLo, rd.GeneHi = g, lo, lo+wl
		} else {
			s = randSeq(rng, l)
		}
		if rng.Float64() < spec.PolyAFraction {
			s = append(s, bytes.Repeat([]byte("A"), 8+rng.Intn(25))...)
		}
		rd.Len = len(s)
		if rng.Float64() < spec.ReverseFraction {
			rd.Reverse = true
			s = RevComp(s)
		}
		seqs = append(seqs, Seq{ID: rd.ID, Seq: s})
		reads = append(reads, rd)
	}
	return seqs, reads
}

// Planted is one homology the generator put between a query and a db
// sequence. Coordinates are 0-based half-open offsets into the
// sequences as emitted; Minus means the query copy is reverse
// complemented relative to the db region.
type Planted struct {
	Query, DB      int // sequence indexes in their banks
	QStart, QEnd   int
	DBStart, DBEnd int
	Minus          bool
	// Identity is the expected column identity the mutation model
	// gives this homology.
	Identity float64
}

// ESTPairs lists the planted homologies between query and db reads:
// every pair carrying windows of one gene that overlap by at least
// minOverlap gene bases. The coordinates span the shared window as it
// landed in each read.
func ESTPairs(query, db []Read, identity float64, minOverlap int) []Planted {
	byGene := map[int][]int{}
	for i := range db {
		if db[i].Gene >= 0 {
			byGene[db[i].Gene] = append(byGene[db[i].Gene], i)
		}
	}
	var out []Planted
	for qi := range query {
		q := &query[qi]
		if q.Gene < 0 {
			continue
		}
		for _, di := range byGene[q.Gene] {
			d := &db[di]
			lo, hi := max(q.GeneLo, d.GeneLo), min(q.GeneHi, d.GeneHi)
			if hi-lo < minOverlap {
				continue
			}
			qs, qe := span(q, lo, hi)
			ds, de := span(d, lo, hi)
			out = append(out, Planted{
				Query: qi, DB: di,
				QStart: qs, QEnd: qe, DBStart: ds, DBEnd: de,
				Minus:    q.Reverse != d.Reverse,
				Identity: identity,
			})
		}
	}
	return out
}

// span maps the gene interval [lo, hi) onto r's emitted coordinates.
func span(r *Read, lo, hi int) (int, int) {
	first, last := int32(-1), int32(-1)
	for g := lo; g < hi; g++ {
		if a := r.At[g-r.GeneLo]; a >= 0 {
			if first < 0 {
				first = a
			}
			last = a
		}
	}
	a, b := r.Offset(first), r.Offset(last)
	if a > b {
		a, b = b, a
	}
	return int(a), int(b) + 1
}

// GenomeSpec shapes a genome db and its query segments.
type GenomeSpec struct {
	Seed   int64
	Chroms int
	// ChromLen is each chromosome's length.
	ChromLen int
	// RepeatFamilies units of RepeatLen bases, each stamped
	// RepeatCopies times per chromosome under RepeatMut.
	RepeatFamilies, RepeatLen, RepeatCopies int
	RepeatMut                               Mutation
	// LowComplexity tracts per chromosome, 20–100 bases each.
	LowComplexity int

	// Segments query segments of SegmentLen bases carry the db's
	// repeat families and low-complexity tracts at the same density
	// over their own background.
	Segments, SegmentLen int
	// Plants diverged copies of PlantMinLen..PlantMaxLen db bases are
	// written into each segment, half of them reverse complemented,
	// each under one of PlantMuts (cycled).
	Plants                   int
	PlantMinLen, PlantMaxLen int
	PlantMuts                []Mutation
}

// Genome generates the db chromosomes and the query segments with the
// planted truth. Planted.Query indexes the returned segments; the db
// coordinates are chromosome offsets.
func Genome(spec GenomeSpec) (db []Seq, queries []Seq, truth []Planted) {
	rng := rand.New(rand.NewSource(spec.Seed))
	units := make([][]byte, spec.RepeatFamilies)
	for i := range units {
		units[i] = randSeq(rng, spec.RepeatLen)
	}
	// genomic makes n bases of background carrying repeat copies and
	// low-complexity tracts at the chromosomes' density.
	genomic := func(n int) []byte {
		s := randSeq(rng, n)
		for k := 0; k < spec.RepeatFamilies*spec.RepeatCopies*n/spec.ChromLen; k++ {
			u, _ := mutate(rng, units[k%len(units)], spec.RepeatMut)
			pos := rng.Intn(len(s) - len(u))
			copy(s[pos:], u)
		}
		for t := 0; t < spec.LowComplexity*n/spec.ChromLen; t++ {
			lowComplexity(rng, s)
		}
		return s
	}
	for c := 0; c < spec.Chroms; c++ {
		db = append(db, Seq{ID: fmt.Sprintf("chr%02d", c+1), Seq: genomic(spec.ChromLen)})
	}
	for q := 0; q < spec.Segments; q++ {
		seg := genomic(spec.SegmentLen)
		// Plants go into equal slots so they never overlap each other;
		// a slot is at least twice the longest plant.
		slot := len(seg) / spec.Plants
		if slot < 2*spec.PlantMaxLen {
			panic("gen: segment too short for its plants")
		}
		for p := 0; p < spec.Plants; p++ {
			mut := spec.PlantMuts[p%len(spec.PlantMuts)]
			l := spec.PlantMinLen + rng.Intn(spec.PlantMaxLen-spec.PlantMinLen)
			dc := rng.Intn(len(db))
			ds := rng.Intn(len(db[dc].Seq) - l)
			cp, _ := mutate(rng, db[dc].Seq[ds:ds+l], mut)
			minus := p%2 == 1
			if minus {
				cp = RevComp(cp)
			}
			qs := p*slot + rng.Intn(slot-len(cp))
			copy(seg[qs:], cp)
			truth = append(truth, Planted{
				Query: q, DB: dc,
				QStart: qs, QEnd: qs + len(cp),
				DBStart: ds, DBEnd: ds + l,
				Minus:    minus,
				Identity: mut.Identity(),
			})
		}
		queries = append(queries, Seq{ID: fmt.Sprintf("seg%02d", q+1), Seq: seg})
	}
	return db, queries, truth
}

// lowComplexity overwrites a random 20–100 base tract of s with a
// homopolymer, dinucleotide or trinucleotide run.
func lowComplexity(rng *rand.Rand, s []byte) {
	l := 20 + rng.Intn(80)
	pos := rng.Intn(len(s) - l)
	unit := randSeq(rng, 1+rng.Intn(3))
	for k := 0; k < l; k++ {
		s[pos+k] = unit[k%len(unit)]
	}
}
