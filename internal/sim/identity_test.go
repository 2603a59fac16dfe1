package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// simID is everything the event queue must not change: hashes of the
// per-cycle CycleStats and of the per-node Transitions/UsefulTransitions,
// the run's total transitions, and the sim.queue.hwm value the run leaves
// behind.
type simID struct {
	Stats, Counts uint64
	Events        int64
	HWM           int
}

func (k simID) String() string {
	return fmt.Sprintf("{0x%016x, 0x%016x, %d, %d}", k.Stats, k.Counts, k.Events, k.HWM)
}

// hashInts feeds each value to h as 8 little-endian bytes.
func hashInts(h hash.Hash64, vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

// countsHash hashes every node slot's total and useful transition counts.
func countsHash(nw *logic.Network, c *Counts) uint64 {
	h := fnv.New64a()
	for id := 0; id < nw.NumNodes(); id++ {
		hashInts(h, c.Transitions(logic.NodeID(id)), c.UsefulTransitions(logic.NodeID(id)))
	}
	hashInts(h, int64(c.Cycles()))
	return h.Sum64()
}

// identityNetworks lists every generator, the BLIF corpus (whose cnt2 is
// sequential) and the sequential feedback FSM, in a fixed order.
func identityNetworks(t *testing.T) ([]string, map[string]*logic.Network) {
	t.Helper()
	nets := make(map[string]*logic.Network)
	names := circuits.GeneratorNames()
	for _, name := range names {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = nw
	}
	corpus, err := circuits.BLIFCorpus()
	if err != nil {
		t.Fatal(err)
	}
	var blif []string
	for name, nw := range corpus {
		blif = append(blif, "blif:"+name)
		nets["blif:"+name] = nw
	}
	sort.Strings(blif)
	names = append(names, blif...)
	names = append(names, "fsm")
	nets["fsm"] = seqFeedbackNetwork(t)
	return names, nets
}

// identityVectors is the stimulus of every identity run: 256 vectors.
func identityVectors(nw *logic.Network) [][]bool {
	return RandomVectors(rand.New(rand.NewSource(15)), 256, len(nw.PIs()), 0.5)
}

// wantSimIDs pins every cycle-by-cycle run of TestEventSimIdentity, keyed
// network/unit. The values were recorded with the binary-heap and map
// event queue the simulator had before its timing wheel; the two-queue
// kernel must reproduce them exactly.
var wantSimIDs = map[string]simID{
	"alu4/unit":      {0xedc0b95bb689f637, 0xe709106cc85787ea, 5728, 32},
	"cla8/unit":      {0xb58e63d312a45b65, 0x1cac46f57e04fd6e, 5452, 51},
	"cmp16/unit":     {0x667af9cd99c8e122, 0x62ce5273a68bcc36, 11371, 38},
	"cmp8/unit":      {0xeb6c4937a1f85b26, 0x16b893c717094642, 5371, 21},
	"dec5/unit":      {0x04b9c8c7ff3e4e21, 0xf4016e18aa990aa4, 1380, 36},
	"mult4/unit":     {0xa0b79f994938afc4, 0x1801c0f05308971e, 6620, 20},
	"mult5/unit":     {0xd513cb74807ae135, 0xd6fdef7ac32ebac1, 12752, 30},
	"mult6/unit":     {0x3192faa53d40185e, 0xa20fa311ad4b6608, 21945, 42},
	"mux16/unit":     {0x7d73f029aabee0e9, 0x8c137f4a3d6a4aaf, 7021, 28},
	"par16/unit":     {0x3de3400f65d48163, 0xf96312e887e34a6a, 1868, 8},
	"radd16/unit":    {0xd32ad2b9138a5a18, 0x631ce557772869d3, 12183, 36},
	"radd8/unit":     {0xdd310c9aaf758cd6, 0x7d5cf0277d669a90, 5778, 21},
	"blif:c17/unit":  {0x8bb2fa3dc4f9c7f1, 0x5a6feae50d6f426a, 1602, 4},
	"blif:cmp2/unit": {0xb19098138f485569, 0x2cfab51974c2d5be, 694, 6},
	"blif:cnt2/unit": {0xc77ba96952651da8, 0x4dd7c38b99c9ece0, 961, 8},
	"blif:fadd/unit": {0x262f785e1ec34fc1, 0x01f5d04578148938, 1313, 10},
	"blif:maj3/unit": {0xb93dbaf1569970c4, 0x53076f57b41f8eea, 434, 3},
	"fsm/unit":       {0x4f603932670c3142, 0xa568c1a0f7f38719, 704, 3},
}

// wantMeasureIDs pins MeasureStimulusCtx, keyed network/unit. Stats is a
// hash of the run's Totals.
var wantMeasureIDs = map[string]simID{
	"alu4/unit":      {0xc2274de7f740858a, 0xe709106cc85787ea, 5728, 32},
	"cla8/unit":      {0x58db80e5625bf815, 0x1cac46f57e04fd6e, 5452, 51},
	"cmp16/unit":     {0x200b7c6d91395185, 0x62ce5273a68bcc36, 11371, 38},
	"cmp8/unit":      {0xa490bd3ed7794702, 0x16b893c717094642, 5371, 21},
	"dec5/unit":      {0xa3bb7d7bccc779d3, 0xf4016e18aa990aa4, 1380, 36},
	"mult4/unit":     {0xa5dff4fd3e7b5180, 0x1801c0f05308971e, 6620, 20},
	"mult5/unit":     {0xeec2173fda607c85, 0xd6fdef7ac32ebac1, 12752, 30},
	"mult6/unit":     {0x9759233450ffa430, 0xa20fa311ad4b6608, 21945, 42},
	"mux16/unit":     {0x80a5c030ea0433a0, 0x8c137f4a3d6a4aaf, 7021, 28},
	"par16/unit":     {0xe03db946579c0466, 0xf96312e887e34a6a, 1868, 8},
	"radd16/unit":    {0x0a0aeca8f2395740, 0x631ce557772869d3, 12183, 36},
	"radd8/unit":     {0x846d799bab0d10ed, 0x7d5cf0277d669a90, 5778, 21},
	"blif:c17/unit":  {0xa0718e6a1af26e09, 0x5a6feae50d6f426a, 1602, 4},
	"blif:cmp2/unit": {0x9312dcc78a7503b9, 0x2cfab51974c2d5be, 694, 6},
	"blif:cnt2/unit": {0xc9f87d59fdc21b29, 0x4dd7c38b99c9ece0, 961, 8},
	"blif:fadd/unit": {0x727e41d98f5cbd0e, 0x01f5d04578148938, 1313, 10},
	"blif:maj3/unit": {0x1d364511d7546904, 0x53076f57b41f8eea, 434, 3},
	"fsm/unit":       {0x4db03eed14467059, 0xa568c1a0f7f38719, 704, 3},
}

// TestEventSimIdentity checks that the event-driven simulator produces the
// same per-cycle statistics, per-node counts and queue high-water mark as
// the queue it replaced, on every generator, the BLIF corpus and a
// sequential FSM at unit delay, and that MeasureStimulusCtx does.
func TestEventSimIdentity(t *testing.T) {
	reg := obsv.Enable()
	t.Cleanup(obsv.Disable)
	hwm := reg.Gauge("sim.queue.hwm")
	var report strings.Builder
	check := func(key string, got, want simID, ok bool) {
		t.Helper()
		if !ok || got != want {
			t.Errorf("%s: got %v, want %v (pinned: %v)", key, got, want, ok)
			fmt.Fprintf(&report, "\t%q: %v,\n", key, got)
		}
	}

	names, nets := identityNetworks(t)
	for _, name := range names {
		nw := nets[name]
		vecs := identityVectors(nw)
		key := name + "/unit"
		hwm.Set(0)
		s, err := New(nw)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		stats := fnv.New64a()
		var events int64
		for _, v := range vecs {
			cs, err := s.Cycle(v)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			hashInts(stats, int64(cs.Transitions), int64(cs.Useful), int64(cs.Spurious), int64(cs.SettleTime))
			events += int64(cs.Transitions)
		}
		got := simID{stats.Sum64(), countsHash(nw, &s.Counts), events, int(hwm.Value())}
		want, ok := wantSimIDs[key]
		check(key, got, want, ok)

		mkey := key + "/measure"
		hwm.Set(0)
		m, err := MeasureStimulusCtx(context.Background(), nw, mustPack(t, vecs))
		if err != nil {
			t.Fatalf("%s: %v", mkey, err)
		}
		tot := fnv.New64a()
		hashInts(tot, int64(m.Totals.Cycles), m.Totals.Transitions, m.Totals.Useful, m.Totals.Spurious, int64(m.Totals.MaxSettle))
		got = simID{tot.Sum64(), countsHash(nw, &m.Counts), m.Totals.Transitions, int(hwm.Value())}
		want, ok = wantMeasureIDs[key]
		check(mkey, got, want, ok)
	}
	if report.Len() > 0 {
		t.Logf("observed values:\n%s", report.String())
	}
}
