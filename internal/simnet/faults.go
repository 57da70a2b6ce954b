package simnet

import (
	"time"

	"stableleader/id"
)

// FaultPlan describes the random crash/recovery behaviour of a component
// exactly as in the paper's evaluation: both the time between failures and
// the repair time are exponentially distributed.
type FaultPlan struct {
	// MTBF is the mean operating time between two consecutive crashes.
	MTBF time.Duration
	// MTTR is the mean time a crash lasts before recovery.
	MTTR time.Duration
}

// PaperProcessFaults is the workstation behaviour of Section 6.1: every
// workstation crashes every 10 minutes on average and takes 5 seconds on
// average to recover.
func PaperProcessFaults() FaultPlan {
	return FaultPlan{MTBF: 600 * time.Second, MTTR: 5 * time.Second}
}

// ScheduleFaults drives an alternating up/down renewal process on the
// engine: after Exp(MTBF) of uptime it calls crash, after Exp(MTTR) of
// downtime it calls recover, forever. The component starts up.
func ScheduleFaults(eng *Engine, plan FaultPlan, crash, recover func()) {
	if plan.MTBF <= 0 {
		return
	}
	var scheduleCrash func()
	var scheduleRecover func()
	scheduleCrash = func() {
		d := expDuration(eng.Rand(), plan.MTBF)
		eng.After(d, func() {
			crash()
			scheduleRecover()
		})
	}
	scheduleRecover = func() {
		d := expDuration(eng.Rand(), plan.MTTR)
		eng.After(d, func() {
			recover()
			scheduleCrash()
		})
	}
	scheduleCrash()
}

// ScheduleLinkFaults applies a FaultPlan to one directed link: while
// "crashed" the link drops every message (completely disconnecting the
// receiver from the sender), then recovers, as in the Figure 7 experiments.
func ScheduleLinkFaults(eng *Engine, net *Network, from, to id.Process, plan FaultPlan) {
	ScheduleFaults(eng, plan,
		func() { net.SetLinkDown(from, to, true) },
		func() { net.SetLinkDown(from, to, false) },
	)
}

// ScheduleAllLinkFaults applies independent fault processes to every
// directed link among the given processes.
func ScheduleAllLinkFaults(eng *Engine, net *Network, procs []id.Process, plan FaultPlan) {
	for _, a := range procs {
		for _, b := range procs {
			if a == b {
				continue
			}
			ScheduleLinkFaults(eng, net, a, b, plan)
		}
	}
}

// SetPartition crashes (down=true) or heals (down=false) every directed
// link between the two sides, in both directions: a network partition.
// Links within a side are untouched.
func SetPartition(net *Network, sideA, sideB []id.Process, down bool) {
	for _, a := range sideA {
		for _, b := range sideB {
			if a == b {
				continue
			}
			net.SetLinkDown(a, b, down)
			net.SetLinkDown(b, a, down)
		}
	}
}

// SchedulePartition partitions the two sides at a given virtual time and
// heals them at a later one. healAt of zero (or ≤ at) leaves the partition
// permanent.
func SchedulePartition(eng *Engine, net *Network, sideA, sideB []id.Process, at, healAt time.Duration) {
	eng.After(at, func() { SetPartition(net, sideA, sideB, true) })
	if healAt > at {
		eng.After(healAt, func() { SetPartition(net, sideA, sideB, false) })
	}
}
