package oracle

import (
	"strings"
	"testing"
)

var blastn = Scoring{Match: 1, Mismatch: 3, GapOpen: 5, GapExtend: 2}

// exact is a 40-column identical alignment of s against itself.
func exact(s string) Alignment {
	n := len(s)
	return Alignment{SStart: 0, SEnd: n, QStart: 0, QEnd: n, Score: n, Matches: n, Length: n}
}

func TestCheckAcceptsHandBuiltAlignments(t *testing.T) {
	s := "ACGTACGGTCAGTTAGCCATGACGTTAGCATCGATCGGAT"
	cases := []struct {
		name    string
		subject string
		query   string
		a       Alignment
	}{
		{"identical", s, s, exact(s)},
		{"one mismatch", s, s[:10] + "T" + s[11:], Alignment{
			SEnd: 40, QEnd: 40, Score: 39 - 3, Matches: 39, Mismatches: 1, Length: 40}},
		// Query lacks s[20:22]: one gap of two columns.
		{"deletion", s, s[:20] + s[22:], Alignment{
			SEnd: 40, QEnd: 38, Score: 38 - 5 - 2*2, Matches: 38, GapOpens: 1, GapBases: 2, Length: 40}},
		// Query has three extra bases: one gap of three columns.
		{"insertion", s, s[:15] + "GGG" + s[15:], Alignment{
			SEnd: 40, QEnd: 43, Score: 40 - 5 - 3*2, Matches: 40, GapOpens: 1, GapBases: 3, Length: 43}},
		{"minus strand", s, "TT" + string(revComp([]byte(s))) + "GG", Alignment{
			SEnd: 40, QStart: 2, QEnd: 42, Minus: true, Score: 40, Matches: 40, Length: 40}},
		// Reported path is worse than the optimum: allowed.
		{"suboptimal path", s, s, Alignment{
			SEnd: 40, QEnd: 40, Score: 38 - 2*5 - 4*2, Matches: 38, GapOpens: 2, GapBases: 4, Length: 42}},
	}
	for _, c := range cases {
		if err := blastn.Check(c.a, []byte(c.subject), []byte(c.query)); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestCheckRejectsCorruptedAlignments(t *testing.T) {
	s := []byte("ACGTACGGTCAGTTAGCCATGACGTTAGCATCGATCGGAT")
	good := exact(string(s))
	corrupt := map[string]func(*Alignment){
		"score inflated":     func(a *Alignment) { a.Score += 5 },
		"counters shifted":   func(a *Alignment) { a.Matches--; a.Mismatches++ },
		"length off":         func(a *Alignment) { a.Length++ },
		"span shifted":       func(a *Alignment) { a.QStart, a.QEnd = 1, 41 },
		"gap opens no gaps":  func(a *Alignment) { a.GapOpens = 1 },
		"span out of range":  func(a *Alignment) { a.SEnd = 99 },
		"wrong strand":       func(a *Alignment) { a.Minus = true },
		"substring mismatch": func(a *Alignment) { a.SStart, a.SEnd = 1, 41 },
	}
	q := append([]byte(nil), s...)
	q = append(q, 'A')
	for name, f := range corrupt {
		a := good
		f(&a)
		if err := blastn.Check(a, append(s, 'C'), q); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBandedGlobalMatchesFullDP(t *testing.T) {
	// With a band as wide as the strings the banded DP is the full one;
	// known optimum: one 2-column gap.
	s := []byte("AAAACCCCGGGGTTTT")
	q := []byte("AAAACCGGGGTTTT")
	got, ok := blastn.bandedGlobal(s, q, 16)
	if !ok || got != 14-5-4 {
		t.Fatalf("banded global = %d, %v; want %d", got, ok, 14-5-4)
	}
	if _, ok := blastn.bandedGlobal(s, q, 1); ok {
		t.Fatal("a band narrower than the length difference must hold no path")
	}
}

func TestStatsMatchPublishedLambda(t *testing.T) {
	st, err := StatsFor(blastn)
	if err != nil {
		t.Fatal(err)
	}
	// NCBI blast_stat.c: +1/−3 ungapped λ = 1.374.
	if st.Lambda < 1.3735 || st.Lambda > 1.3745 {
		t.Fatalf("lambda = %.5f, want 1.374", st.Lambda)
	}
	if _, err := StatsFor(Scoring{Match: 2, Mismatch: 7}); err == nil {
		t.Fatal("unknown scoring accepted")
	}
}

func TestCheckEValue(t *testing.T) {
	st, _ := StatsFor(blastn)
	a := Alignment{Score: 40}
	a.EValue = st.EValue(40, 1_000_000, 500)
	if err := st.CheckEValue(a, 1_000_000, 500, 1e-3); err != nil {
		t.Fatal(err)
	}
	b := a
	b.EValue *= 1.5
	if err := st.CheckEValue(b, 1_000_000, 500, 1e-3); err == nil || !strings.Contains(err.Error(), "recomputed") {
		t.Fatalf("misreported E-value: %v", err)
	}
	c := Alignment{Score: 15}
	c.EValue = st.EValue(15, 1_000_000, 500)
	if err := st.CheckEValue(c, 1_000_000, 500, 1e-3); err == nil {
		t.Fatal("alignment above the E-value cutoff accepted")
	}
}

func TestCheckUnique(t *testing.T) {
	base := Alignment{Subject: 1, Query: 2, SStart: 100, SEnd: 200, QStart: 10, QEnd: 110}
	inner := Alignment{Subject: 1, Query: 2, SStart: 120, SEnd: 180, QStart: 30, QEnd: 90}
	apart := Alignment{Subject: 1, Query: 2, SStart: 150, SEnd: 260, QStart: 60, QEnd: 170}
	otherStrand := inner
	otherStrand.Minus = true
	otherPair := inner
	otherPair.Query = 3
	if err := CheckUnique([]Alignment{base, apart, otherStrand, otherPair}); err != nil {
		t.Fatalf("distinct alignments rejected: %v", err)
	}
	if err := CheckUnique([]Alignment{inner, apart, base}); err == nil {
		t.Fatal("nested alignment accepted")
	}
	if err := CheckUnique([]Alignment{base, apart, base}); err == nil {
		t.Fatal("repeated alignment accepted")
	}
	sameSubject := base
	sameSubject.QStart, sameSubject.QEnd = 0, 120
	if err := CheckUnique([]Alignment{base, sameSubject}); err == nil {
		t.Fatal("alignment nested on the query side only accepted")
	}
	// A nested alignment that outscores its container is kept.
	base.Score, inner.Score = 30, 33
	if err := CheckUnique([]Alignment{base, inner}); err != nil {
		t.Fatalf("higher-scoring nested alignment rejected: %v", err)
	}
}
