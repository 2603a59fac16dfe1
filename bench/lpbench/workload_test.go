package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/logic"
)

// requestList renders the first rounds of a workload's stream as bytes.
func requestList(t *testing.T, name string, seed int64, rounds int) []byte {
	t.Helper()
	w, err := newWorkload(name, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, k := range w.keys {
		b.Write(mustJSON(k))
		b.WriteByte('\n')
	}
	g := newGen(seed)
	for r := 0; r < rounds; r++ {
		for _, o := range w.round(g, r) {
			b.WriteString(o.class + " " + o.path + " ")
			b.Write(o.body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range []string{"estimate-cold", "estimate-hot", "flow"} {
		a, b := requestList(t, name, 1, 2), requestList(t, name, 1, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different request lists", name)
		}
		if bytes.Equal(a, requestList(t, name, 2, 2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", name)
		}
	}
}

// Whatever the seed, every round has the same kinds of op, and estimate
// items come in the decks' proportions.
func TestRoundsHaveFixedComposition(t *testing.T) {
	for _, name := range []string{"estimate-cold", "estimate-hot", "flow"} {
		mix := func(seed int64) (map[string]int, map[string]int) {
			w, _ := newWorkload(name, seed, false)
			ops, items := map[string]int{}, map[string]int{}
			for _, o := range w.round(newGen(seed), 0) {
				ops[o.class]++
				for _, q := range o.items {
					items[q.Estimator]++
					if q.BLIF != "" {
						items["upload"]++
					}
				}
			}
			return ops, items
		}
		opsA, itemsA := mix(1)
		opsB, itemsB := mix(99)
		if name != "estimate-cold" {
			for c, n := range opsA {
				if opsB[c] != n {
					t.Errorf("%s: %d %q ops with seed 1, %d with seed 99", name, n, c, opsB[c])
				}
			}
			continue
		}
		// Cold classes name each circuit, which the seed picks.
		if opsA["batch"] != opsB["batch"] || opsA["exact/unbudgeted"] != 1 || opsB["exact/unbudgeted"] != 1 {
			t.Errorf("estimate-cold: batches %d/%d, unbudgeted %d/%d", opsA["batch"], opsB["batch"], opsA["exact/unbudgeted"], opsB["exact/unbudgeted"])
		}
		for k, n := range itemsA {
			if d := n - itemsB[k]; d > 20 || d < -20 {
				t.Errorf("estimate-cold: %d %s items with seed 1, %d with seed 99", n, k, itemsB[k])
			}
		}
	}
}

func TestRandomBLIFParses(t *testing.T) {
	g := newGen(3)
	for i := 0; i < 40; i++ {
		text := randomBLIF(g.r, "t", i%4 == 0)
		nw, err := logic.ReadBLIF(strings.NewReader(text))
		if err != nil {
			t.Fatalf("upload %d: %v\n%s", i, err, text)
		}
		if err := nw.Check(); err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
		if n := len(nw.PIs()); n < 8 || n > 16 {
			t.Errorf("upload %d: %d inputs, want 8-16", i, n)
		}
		if seq := i%4 == 0; seq != (len(nw.FFs()) >= 4 && len(nw.FFs()) <= 8) || !seq && len(nw.FFs()) > 0 {
			t.Errorf("upload %d: %d latches, sequential=%t", i, len(nw.FFs()), seq)
		}
		if len(nw.POs()) == 0 {
			t.Errorf("upload %d: no outputs", i)
		}
	}
}
