package expt

import "testing"

// TestRepairQualityAcceptance pins the E-repair bar at the experiment's
// -quick sizes: at least 95% of refilled holes must hold the oracle-closest
// candidate, and every refillable hole must actually be refilled.
func TestRepairQualityAcceptance(t *testing.T) {
	for _, seed := range []int64{3, 4, 5} {
		st := runRepair(96, 20, 128, seed)
		if st.Refilled == 0 {
			t.Fatalf("seed %d: no holes were refilled; the scenario is not exercising repair", seed)
		}
		if frac := st.MatchFrac(); frac < 0.95 {
			t.Fatalf("seed %d: repair matched oracle on %.1f%% of refilled holes, want >= 95%%",
				seed, 100*frac)
		}
		if st.Refilled < st.Refillable {
			t.Fatalf("seed %d: repair left %d of %d refillable holes empty",
				seed, st.Refillable-st.Refilled, st.Refillable)
		}
	}
}
