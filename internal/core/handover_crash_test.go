package core

import (
	"testing"
	"time"

	"stableleader/internal/election"
	"stableleader/internal/simnet"
)

// TestSuccessorCrashingBeforeItsFirstHeartbeatIsDetected: under ΩL the
// standby is silent, so the node adopting it on a HANDOVER never trusted it
// — and a monitor that never trusted reports no crash. The handover itself
// must put the successor under failure detection, or a successor dying in
// the same instant leads the survivor's view forever.
func TestSuccessorCrashingBeforeItsFirstHeartbeatIsDetected(t *testing.T) {
	c := newCluster(t, simnet.LAN(), "a", "b", "c")
	for _, p := range c.procs {
		c.start(p, defaultOpts(election.OmegaL, true))
	}
	old := c.waitCommonLeader(5 * time.Second)
	c.eng.RunFor(5 * time.Second) // a standby is nominated and announced
	succ, _, err := c.nodes[old].Standby(testGroup)
	if err != nil || succ == "" {
		t.Fatalf("leader %s has no standby (err=%v)", old, err)
	}
	if err := c.nodes[old].Leave(testGroup); err != nil {
		t.Fatal(err)
	}
	delete(c.nodes, old)
	c.crash(succ) // before the HANDOVER even reaches it
	var survivor = c.procs[0]
	for _, p := range c.procs {
		if p != old && p != succ {
			survivor = p
		}
	}
	spec := defaultOpts(election.OmegaL, true).QoS
	c.eng.RunFor(spec.DetectionTime + 500*time.Millisecond)
	li, err := c.nodes[survivor].Leader(testGroup)
	if err != nil {
		t.Fatal(err)
	}
	if !li.Elected || li.Leader != survivor {
		t.Fatalf("survivor %s still sees %+v after the successor %s crashed unheard", survivor, li, succ)
	}
}
