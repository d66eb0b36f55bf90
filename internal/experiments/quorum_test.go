package experiments

import "testing"

// TestQuorumConformance is the quorum smoke test: with R=2, Q=2 the
// primary's preferred replication link goes dark mid-run and the
// primary then dies for good — yet every safety property must hold,
// because the second follower kept acknowledging through the partition
// and promotion lands on a copy holding everything ever acked.
func TestQuorumConformance(t *testing.T) {
	res, err := Quorum(0.5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatQuorum(res))
	if !res.Passed || res.Violations != 0 {
		t.Errorf("quorum run violated safety: passed=%t violations=%d (%v)",
			res.Passed, res.Violations, res.ViolatedProperties)
	}
	if res.Promotions < 1 {
		t.Errorf("no promotion observed; replica events: %v", res.ReplicaEvents)
	}
	if res.MTTR <= 0 {
		t.Error("no post-kill delivery on the victim queue: failover did not recover consumers")
	}
	if res.UnavailableWindow <= 0 {
		t.Error("no post-kill successful send on the victim queue: failover did not recover producers")
	}
}

// TestSingleFollowerCoverGapAttributed is the regression pair for the
// silent cover gap the quorum work closes: under R=1 the partitioned
// link is the destination's ONLY cover, so messages acked (after the
// semisync timeout degraded the link, visibly) but undelivered when the
// primary dies exist nowhere else — and the conformance checker must
// attribute the loss rather than let it pass silently. The identical
// schedule under R=2, Q=2 loses nothing: that contrast is the tentpole.
func TestSingleFollowerCoverGapAttributed(t *testing.T) {
	res, err := quorumRun(0.5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatQuorum(res))
	if res.Passed || res.Violations == 0 {
		t.Fatalf("R=1 run with a dark only-link lost nothing? passed=%t violations=%d — the cover gap went undetected",
			res.Passed, res.Violations)
	}
	attributed := false
	for _, p := range res.ViolatedProperties {
		attributed = attributed || p == "required-messages"
	}
	if !attributed {
		t.Errorf("acked-message loss not attributed to the required-messages property; violated: %v",
			res.ViolatedProperties)
	}
	if res.UnquorateWrites == 0 {
		t.Error("degraded only-link produced no unquorate writes; the loss window was invisible")
	}
}
