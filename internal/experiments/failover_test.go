package experiments

import "testing"

// TestFailoverConformance is the failover smoke test: a short
// replicated run with a scripted permanent primary kill must promote at
// least once, recover deliveries on the victim's queues, and pass every
// safety property.
func TestFailoverConformance(t *testing.T) {
	res, err := Failover(0.5)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", FormatFailover(res))
	if !res.Passed || res.Violations != 0 {
		t.Errorf("failover run violated safety: passed=%t violations=%d", res.Passed, res.Violations)
	}
	if res.Promotions < 1 {
		t.Errorf("no promotion observed; replica events: %v", res.ReplicaEvents)
	}
	if len(res.VictimQueues) == 0 {
		t.Error("victim owned no queues; the kill exercised nothing")
	}
	if res.MTTR <= 0 {
		t.Error("no post-kill delivery on a victim queue: failover did not recover consumers")
	}
	if res.UnavailableWindow <= 0 {
		t.Error("no post-kill successful send on a victim queue: failover did not recover producers")
	}
}
