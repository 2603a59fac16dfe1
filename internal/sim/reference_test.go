package sim

import "repro/internal/logic"

// This file keeps the event queue the simulator had before its timing
// wheel as a test oracle: a binary min-heap of pending event times,
// per-time node buckets in a Go map and a map of queued (time, node)
// pairs for deduplication. refCycle is Cycle over that queue at unit
// delay, walking the network's own fanout lists instead of the compiled
// consumer lists and rescanning every fanin instead of reading a ones
// count. FuzzEventSim checks the two-queue kernel against it event for
// event.

// refQueue is the heap-and-map event queue.
type refQueue struct {
	timeHeap    []int
	buckets     map[int][]logic.NodeID
	inQ         map[uint64]bool
	outstanding int
	cycleHWM    int
}

func newRefQueue() *refQueue {
	return &refQueue{buckets: make(map[int][]logic.NodeID), inQ: make(map[uint64]bool)}
}

// qkey packs a (time, node) pair into one dedup map key.
func qkey(t int, id logic.NodeID) uint64 {
	return uint64(t)<<32 | uint64(uint32(id))
}

func (q *refQueue) schedule(t int, id logic.NodeID) {
	k := qkey(t, id)
	if q.inQ[k] {
		return
	}
	q.inQ[k] = true
	b, ok := q.buckets[t]
	if !ok {
		q.heapPush(t)
	}
	q.buckets[t] = append(b, id)
	q.outstanding++
	if q.outstanding > q.cycleHWM {
		q.cycleHWM = q.outstanding
	}
}

func (q *refQueue) heapPush(t int) {
	h := append(q.timeHeap, t)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	q.timeHeap = h
}

func (q *refQueue) heapPop() int {
	h := q.timeHeap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	q.timeHeap = h
	return top
}

// refCycle simulates one clock cycle of s through q. It updates s's
// values and counts exactly as Cycle does, but records no
// metrics; q.cycleHWM holds the cycle's queue high-water mark.
func refCycle(s *Simulator, q *refQueue, in []bool) CycleStats {
	nw := s.nw
	initial := append([]bool(nil), s.val...)
	var changed []logic.NodeID
	newFF := make([]bool, len(nw.FFs()))
	for i, f := range nw.FFs() {
		newFF[i] = s.val[nw.Node(f).Fanin[0]]
	}
	for i, f := range nw.FFs() {
		if s.val[f] != newFF[i] {
			s.val[f] = newFF[i]
			changed = append(changed, f)
			s.nodeTransitions[f]++
			s.nodeUseful[f]++
		}
	}
	for i, pi := range nw.PIs() {
		if s.val[pi] != in[i] {
			s.val[pi] = in[i]
			changed = append(changed, pi)
		}
	}
	q.timeHeap = q.timeHeap[:0]
	q.outstanding, q.cycleHWM = 0, 0
	for _, id := range changed {
		for _, c := range nw.Node(id).Fanout() {
			cn := nw.Node(c)
			if cn == nil || cn.Type == logic.DFF {
				continue
			}
			q.schedule(1, c)
		}
	}

	stats := CycleStats{}
	var buf []bool
	for len(q.timeHeap) > 0 {
		t := q.heapPop()
		ids := q.buckets[t]
		delete(q.buckets, t)
		q.outstanding -= len(ids)
		for _, id := range ids {
			delete(q.inQ, qkey(t, id))
			n := nw.Node(id)
			if n == nil || !n.Type.IsGate() {
				continue
			}
			buf = buf[:0]
			for _, f := range n.Fanin {
				buf = append(buf, s.val[f])
			}
			nv := logic.EvalGate(n.Type, buf)
			if nv == s.val[id] {
				continue
			}
			s.val[id] = nv
			stats.Transitions++
			s.nodeTransitions[id]++
			if t > stats.SettleTime {
				stats.SettleTime = t
			}
			for _, c := range n.Fanout() {
				cn := nw.Node(c)
				if cn == nil || cn.Type == logic.DFF {
					continue
				}
				q.schedule(t+1, c)
			}
		}
	}

	for _, id := range nw.Gates() {
		if s.val[id] != initial[id] {
			stats.Useful++
			s.nodeUseful[id]++
		}
	}
	stats.Spurious = stats.Transitions - stats.Useful
	s.cycles++
	return stats
}
