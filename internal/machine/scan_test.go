package machine

import "fmt"

// runScan is the reference scan-loop scheduler Run replaced: every event
// step ticks all cores, rescans for completion and barrier state, and
// advances to the minimum returned wake time. It lives only in the tests
// as the executable specification of the machine's cycle arithmetic —
// the equivalence property test replays randomized traces through both
// schedulers and requires identical cycles, retired counts, and counter
// snapshots (see TestSchedulerEquivalence).
//
// The scan loop visits the union of all cores' wake times in ascending
// order, ticking cores in id order within a step; Run's wake table
// replays exactly that (time, id) order while skipping the no-op ticks
// of cores whose wake time has not arrived.
func (m *Machine) runScan() Result {
	var now, elapsed uint64
	for {
		minNext := ^uint64(0)
		allDone := true
		for _, c := range m.cores {
			next := tickCore(c, now, elapsed)
			if !c.Done() {
				allDone = false
				if next < minNext {
					minNext = next
				}
			}
		}
		if allDone {
			break
		}

		// Barrier release: every unfinished core parked.
		allWaiting := true
		for _, c := range m.cores {
			if !c.Done() && !c.WaitingBarrier() {
				allWaiting = false
				break
			}
		}
		if allWaiting {
			for _, c := range m.cores {
				c.ReleaseBarrier(now)
			}
			m.ctr.barriers.Inc()
			minNext = now + 1
		}

		if minNext == ^uint64(0) {
			panic(fmt.Sprintf("machine: deadlock at cycle %d", now))
		}
		if minNext <= now {
			minNext = now + 1
		}
		elapsed = minNext - now
		now = minNext
	}
	return m.result(now)
}

// runDense is the dense-clock oracle: it ticks every core at every cycle
// from 0 to the end, applying barrier release exactly as runScan does. runScan only adds ticks at other cores' event
// times; the dense clock adds a tick at every cycle, so agreement with
// Run proves each core's returned wake time needs no outside help — no
// cycle between two wakes can change anything a tick would observe.
func (m *Machine) runDense() Result {
	var now, elapsed uint64
	for {
		allDone, stuck := true, true
		for _, c := range m.cores {
			next := tickCore(c, now, elapsed)
			if !c.Done() {
				allDone = false
				if next != ^uint64(0) {
					stuck = false
				}
			}
		}
		if allDone {
			break
		}

		allWaiting := true
		for _, c := range m.cores {
			if !c.Done() && !c.WaitingBarrier() {
				allWaiting = false
				break
			}
		}
		if allWaiting {
			for _, c := range m.cores {
				c.ReleaseBarrier(now)
			}
			m.ctr.barriers.Inc()
			stuck = false
		}
		if stuck {
			panic(fmt.Sprintf("machine: deadlock at cycle %d", now))
		}
		elapsed = 1
		now++
	}
	return m.result(now)
}
