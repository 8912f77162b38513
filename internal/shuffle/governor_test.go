package shuffle

import "testing"

// TestGovernorVote drives the shared settle loop through scripted intervals
// and checks on which vote it says to act.
func TestGovernorVote(t *testing.T) {
	type vote struct {
		attempts  uint64
		want, cur string
		act       bool
	}
	cases := []struct {
		name  string
		votes []vote
	}{
		{"settles-at-two", []vote{
			{100, "b", "a", false},
			{100, "b", "a", true},
		}},
		{"acting-resets-the-streak", []vote{
			{100, "b", "a", false},
			{100, "b", "a", true},
			{100, "b", "a", false},
			{100, "b", "a", true},
		}},
		{"min-ops-resets", []vote{
			{100, "b", "a", false},
			{49, "b", "a", false},
			{100, "b", "a", false},
			{100, "b", "a", true},
		}},
		{"want-equals-cur-resets", []vote{
			{100, "b", "a", false},
			{100, "a", "a", false},
			{100, "b", "a", false},
			{100, "b", "a", true},
		}},
		{"differing-vote-breaks-streak", []vote{
			{100, "b", "a", false},
			{100, "c", "a", false},
			{100, "b", "a", false},
			{100, "b", "a", true},
		}},
		{"floor-is-inclusive", []vote{
			{50, "b", "a", false},
			{50, "b", "a", true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Governor
			for i, v := range tc.votes {
				if got := g.Vote(v.attempts, 50, v.want, v.cur); got != v.act {
					t.Fatalf("vote %d (%d attempts, %s -> %s) = %v, want %v",
						i, v.attempts, v.cur, v.want, got, v.act)
				}
			}
		})
	}
}

// TestStormFloor: the abort-storm verdict needs both the absolute floor and
// the fraction.
func TestStormFloor(t *testing.T) {
	cases := []struct {
		aborts uint64
		frac   float64
		storm  bool
	}{
		{8, 0.25, true},
		{7, 0.9, false},   // under the absolute floor, however high the fraction
		{400, 0.2, false}, // under the fraction, however many aborts
		{400, 0.4, true},
	}
	for _, tc := range cases {
		if got := Storm(tc.aborts, tc.frac, 0.25); got != tc.storm {
			t.Errorf("Storm(%d, %.2f, 0.25) = %v, want %v", tc.aborts, tc.frac, got, tc.storm)
		}
	}
}
