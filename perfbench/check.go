package main

import (
	"fmt"
	"math"

	"repro/internal/align"
	"repro/internal/bank"
	"repro/internal/core"
	"repro/perfbench/gen"
	"repro/perfbench/oracle"
)

// toOracle converts the program's alignments into offsets within the
// generated sequences.
func toOracle(alns []align.Alignment, db, q *bank.Bank) []oracle.Alignment {
	out := make([]oracle.Alignment, len(alns))
	for i := range alns {
		a := &alns[i]
		s0, _ := db.SeqBounds(int(a.Seq1))
		q0, _ := q.SeqBounds(int(a.Seq2))
		out[i] = oracle.Alignment{
			Subject: int(a.Seq1), Query: int(a.Seq2),
			SStart: int(a.S1 - s0), SEnd: int(a.E1 - s0),
			QStart: int(a.S2 - q0), QEnd: int(a.E2 - q0),
			Minus: a.Minus,
			Score: int(a.Score), Matches: int(a.Matches), Mismatches: int(a.Mismatches),
			GapOpens: int(a.GapOpens), GapBases: int(a.GapBases), Length: int(a.Length),
			EValue: a.EValue,
		}
	}
	return out
}

// checkAlignments runs the oracle over every alignment of one compare:
// the DP and counter check, the E-value recomputation and the
// no-repeat/no-nesting rule. dbSeqs and qSeqs are the generated text.
func checkAlignments(alns []oracle.Alignment, dbSeqs, qSeqs []gen.Seq, dbBases int, opt core.Options) error {
	sc := oracle.Scoring{Match: opt.Scoring.Match, Mismatch: opt.Scoring.Mismatch,
		GapOpen: opt.Scoring.GapOpen, GapExtend: opt.Scoring.GapExtend}
	st, err := oracle.StatsFor(sc)
	if err != nil {
		return err
	}
	for _, a := range alns {
		if a.Subject >= len(dbSeqs) || a.Query >= len(qSeqs) {
			return fmt.Errorf("alignment names sequence pair (%d, %d) outside the banks", a.Subject, a.Query)
		}
		s, q := dbSeqs[a.Subject].Seq, qSeqs[a.Query].Seq
		if err := sc.Check(a, s, q); err != nil {
			return fmt.Errorf("%s vs %s: %v", qSeqs[a.Query].ID, dbSeqs[a.Subject].ID, err)
		}
		if err := st.CheckEValue(a, dbBases, len(q), opt.MaxEValue); err != nil {
			return fmt.Errorf("%s vs %s: %v", qSeqs[a.Query].ID, dbSeqs[a.Subject].ID, err)
		}
	}
	return oracle.CheckUnique(alns)
}

// plantedFound counts planted homologies covered by a reported
// alignment: same sequence pair and strand, and spans overlapping at
// least half the planted span on both sequences.
func plantedFound(truth []gen.Planted, alns []oracle.Alignment) int {
	type pair struct{ s, q int }
	by := map[pair][]int{}
	for i, a := range alns {
		k := pair{a.Subject, a.Query}
		by[k] = append(by[k], i)
	}
	found := 0
	for _, p := range truth {
		for _, i := range by[pair{p.DB, p.Query}] {
			a := &alns[i]
			if a.Minus == p.Minus &&
				2*overlap(a.QStart, a.QEnd, p.QStart, p.QEnd) >= p.QEnd-p.QStart &&
				2*overlap(a.SStart, a.SEnd, p.DBStart, p.DBEnd) >= p.DBEnd-p.DBStart {
				found++
				break
			}
		}
	}
	return found
}

func overlap(a0, a1, b0, b1 int) int { return max(0, min(a1, b1)-max(a0, b0)) }

// seedSensitivity is the probability that a homogeneous alignment of
// length l with per-column identity p holds a run of at least w
// identical columns: the hit probability of a contiguous w-seed in the
// Kucherov–Noé homogeneous model, by dynamic programming over the
// length of the current run.
func seedSensitivity(w, l int, p float64) float64 {
	// run[k] is the probability of no w-run so far, ending in a run of
	// exactly k identities.
	run := make([]float64, w)
	run[0] = 1
	for i := 0; i < l; i++ {
		next := make([]float64, w)
		for k, pr := range run {
			next[0] += pr * (1 - p)
			if k+1 < w {
				next[k+1] += pr * p
			}
		}
		run = next
	}
	miss := 0.0
	for _, pr := range run {
		miss += pr
	}
	return 1 - miss
}

// plantedFloor is the least planted_found a correct run accepts: 90% of
// the homologies a W-seed hits in expectation at each plant's length
// and identity.
func plantedFloor(truth []gen.Planted, w int) int {
	exp := 0.0
	for _, p := range truth {
		exp += seedSensitivity(w, min(p.QEnd-p.QStart, p.DBEnd-p.DBStart), p.Identity)
	}
	return int(math.Floor(0.9 * exp))
}
