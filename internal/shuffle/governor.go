package shuffle

// Governor is the settle loop shared by every adaptive layer that switches
// between policies or locks on interval observations: the kvserver
// controller (lock families and shapes, per shard) and the Meta policy
// (shuffling stages, per lock). Both feed it one vote per interval and act
// only when it says so, which keeps the two layers' stabilisers identical:
//
//   - an interval with fewer than minOps attempts is too quiet to judge and
//     resets the streak (idle locks keep what they have);
//   - a vote for the current state resets the streak (the band between a
//     regime's enter and leave thresholds always votes "stay");
//   - a change acts only after governorSettle consecutive intervals agree
//     on the same wanted state.
//
// The zero value is an empty streak. A Governor is not safe for concurrent
// use; each caller already serialises its evaluations.
type Governor struct {
	want  string // state the recent intervals point at ("" = none)
	count int    // consecutive intervals agreeing on want
}

// governorSettle is how many consecutive agreeing intervals a change needs.
const governorSettle = 2

// minAborts is the absolute per-interval abort floor below which no
// adaptive layer calls an abort storm, whatever the fraction says: on a
// quiet lock one unlucky timeout in a ten-attempt interval is a 10%
// "storm", and the switch it triggers manufactures the next interval's
// aborts — a self-sustaining flap. A real storm clears both bars.
const minAborts = 8

// Storm is the abort-storm verdict every adaptive layer shares: at least
// minAborts aborts and an abort fraction at or above hiAbort.
func Storm(aborts uint64, abortFrac, hiAbort float64) bool {
	return aborts >= minAborts && abortFrac >= hiAbort
}

// Vote records one interval's verdict and reports whether the caller should
// now switch from cur to want.
func (g *Governor) Vote(attempts, minOps uint64, want, cur string) bool {
	if attempts < minOps || want == cur {
		*g = Governor{}
		return false
	}
	if g.want != want {
		*g = Governor{want: want}
	}
	g.count++
	if g.count < governorSettle {
		return false
	}
	*g = Governor{}
	return true
}
