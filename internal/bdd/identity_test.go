package bdd

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/logic"
	"repro/internal/obsv"
)

// kernelID is everything the kernel's table layout must not change: the
// arena itself (a hash of every slot's level, lo and hi, freed slots
// included), the live size, the step count, the unique-table and
// computed-table counter deltas, and the variable order.
type kernelID struct {
	Hash         uint64
	Size         int
	Steps        int64
	UHits, UMiss int64
	IHits, IMiss int64
	Order        string
}

func (k kernelID) String() string {
	return fmt.Sprintf("{0x%016x, %d, %d, %d, %d, %d, %d, %q}",
		k.Hash, k.Size, k.Steps, k.UHits, k.UMiss, k.IHits, k.IMiss, k.Order)
}

// arenaHash hashes the per-Ref (level, lo, hi) array.
func arenaHash(m *Manager) uint64 {
	h := fnv.New64a()
	var buf [12]byte
	for _, n := range m.nodes {
		for i, v := range [3]int32{n.level, int32(n.lo), int32(n.hi)} {
			buf[4*i], buf[4*i+1], buf[4*i+2], buf[4*i+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// kernelCounters snapshots the four table counters of the process
// registry.
type kernelCounters [4]int64

func readKernelCounters(reg *obsv.Registry) kernelCounters {
	return kernelCounters{
		reg.Counter("bdd.unique.hits").Value(),
		reg.Counter("bdd.unique.misses").Value(),
		reg.Counter("bdd.ite.hits").Value(),
		reg.Counter("bdd.ite.misses").Value(),
	}
}

func identify(m *Manager, reg *obsv.Registry, before kernelCounters, withOrder bool) kernelID {
	after := readKernelCounters(reg)
	k := kernelID{
		Hash: arenaHash(m), Size: m.Size(), Steps: m.Steps(),
		UHits: after[0] - before[0], UMiss: after[1] - before[1],
		IHits: after[2] - before[2], IMiss: after[3] - before[3],
	}
	if withOrder {
		k.Order = fmt.Sprint(m.Order())
	}
	return k
}

// identityNetworks lists every generator with at most 16 primary inputs
// plus cmp12, cmp16 and radd16, the wide builds whose tables grow
// largest.
func identityNetworks(t *testing.T) ([]string, map[string]*logic.Network) {
	t.Helper()
	nets := make(map[string]*logic.Network)
	var names []string
	for _, name := range circuits.GeneratorNames() {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(nw.PIs()) <= 16 {
			names = append(names, name)
			nets[name] = nw
		}
	}
	cmp12, err := circuits.Comparator(12)
	if err != nil {
		t.Fatal(err)
	}
	names = append(names, "cmp12")
	nets["cmp12"] = cmp12
	for _, name := range []string{"cmp16", "radd16"} {
		nw, err := circuits.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		nets[name] = nw
	}
	return names, nets
}

// wantKernelIDs pins every declaration-order build of TestKernelIdentity
// (BuildOptions.DeclarationOrder). The values were recorded with the
// map-based tables the kernel had before its tables moved onto the node
// arena; the arena tables must reproduce them exactly. "/fixed" builds
// keep the declaration order, "/sift" builds ReorderPolicy{Enable: true}
// and "/sift64" the same with a 64-node first trigger, so even the
// narrow circuits sift. All run under an untrippable step budget so
// Steps() counts the work.
var wantKernelIDs = map[string]kernelID{
	"alu4/fixed":    {0xc8cf2497ad4149e3, 380, 584, 4, 378, 207, 377, ""},
	"alu4/sift":     {0xc8cf2497ad4149e3, 380, 584, 4, 378, 207, 377, "[0 1 2 3 4 5 6 7 8 9]"},
	"alu4/sift64":   {0x087c45c276c87f77, 189, 13773, 15, 248, 104, 260, "[0 4 1 5 2 6 3 7 8 9]"},
	"cmp8/fixed":    {0xf0e10e7f4c0540cd, 1784, 3129, 7, 1782, 1349, 1780, ""},
	"cmp8/sift":     {0xf0e10e7f4c0540cd, 1784, 3129, 7, 1782, 1349, 1780, "[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]"},
	"cmp8/sift64":   {0xa905052a94d73610, 218, 18461, 7, 311, 191, 309, "[0 8 1 9 2 10 11 7 3 4 12 5 13 6 14 15]"},
	"dec5/fixed":    {0x7a47d13f627bc5ad, 116, 221, 0, 114, 112, 109, ""},
	"dec5/sift":     {0x7a47d13f627bc5ad, 116, 221, 0, 114, 112, 109, "[0 1 2 3 4]"},
	"dec5/sift64":   {0xc021dc8d159f3b7f, 106, 2264, 8, 191, 79, 194, "[0 1 2 3 4]"},
	"mult4/fixed":   {0x105aee992beabf1a, 685, 1453, 214, 683, 455, 998, ""},
	"mult4/sift":    {0x105aee992beabf1a, 685, 1453, 214, 683, 455, 998, "[0 1 2 3 4 5 6 7]"},
	"mult4/sift64":  {0x711f1188a11cee73, 440, 28002, 326, 706, 406, 1170, "[0 7 4 3 5 1 2 6]"},
	"mult5/fixed":   {0xd5b14ff47acf4dfb, 3206, 7708, 1244, 3204, 2821, 4887, ""},
	"mult5/sift":    {0xd5b14ff47acf4dfb, 3206, 7708, 1244, 3204, 2821, 4887, "[0 1 2 3 4 5 6 7 8 9]"},
	"mult5/sift64":  {0xa74103498d0f2f8a, 2274, 130932, 1746, 2975, 2569, 5342, "[9 0 1 8 5 4 6 3 2 7]"},
	"mult6/fixed":   {0x707c686883853616, 13293, 34039, 5636, 13291, 13700, 20339, ""},
	"mult6/sift":    {0x87611a40b0fc18c2, 7555, 689084, 4757, 12165, 10415, 18142, "[8 7 6 5 4 3 9 2 10 11 0 1]"},
	"mult6/sift64":  {0x59df58b76a1f489b, 7025, 821239, 6171, 10725, 10115, 18352, "[0 11 1 2 10 9 3 8 4 5 6 7]"},
	"par16/fixed":   {0x8f2960d1d7a4541c, 97, 179, 34, 95, 66, 113, ""},
	"par16/sift":    {0x8f2960d1d7a4541c, 97, 179, 34, 95, 66, 113, "[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]"},
	"par16/sift64":  {0x69029061c30cab52, 84, 3857, 47, 95, 67, 126, "[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]"},
	"cmp12/fixed":   {0xd8fff9932df3462d, 28664, 52839, 11, 28662, 24179, 28660, ""},
	"cmp12/sift":    {0xe5053ebcff328a1b, 560, 67066, 11, 5904, 5084, 5902, "[0 12 1 13 2 14 3 10 11 15 4 16 5 17 6 18 7 19 8 20 9 21 22 23]"},
	"cmp12/sift64":  {0xb737e068f4837821, 561, 70736, 12, 905, 681, 904, "[0 12 1 13 2 14 15 10 11 3 4 16 5 17 6 18 7 19 8 20 9 21 22 23]"},
	"cmp16/fixed":   {0xd2c530a5cabd5482, 458744, 851269, 15, 458742, 392529, 458740, ""},
	"cmp16/sift":    {0xab66684770b66ab2, 820, 275496, 15, 9508, 8482, 9506, "[0 16 1 17 2 18 3 19 20 26 4 10 5 21 6 22 7 23 8 24 9 25 11 27 12 28 13 29 14 30 15 31]"},
	"cmp16/sift64":  {0x7b73d79dbb82b8fc, 787, 248175, 16, 1771, 1458, 1770, "[0 16 1 17 2 18 3 19 4 20 21 5 6 22 7 23 8 24 9 25 10 26 11 27 12 28 13 29 14 30 15 31]"},
	"radd16/fixed":  {0xf50c11b1cd9af11d, 1441603, 2815458, 16, 1441601, 1373859, 1441599, ""},
	"radd16/sift":   {0xec2ad709470d09eb, 1791, 277670, 26, 9488, 8532, 9496, "[32 0 16 1 17 2 18 3 19 4 20 21 24 14 15 5 8 6 22 7 23 9 25 10 26 11 27 12 28 13 29 30 31]"},
	"radd16/sift64": {0xa919f2b9f8429d54, 1243, 373983, 38, 2704, 2282, 2724, "[32 0 16 1 17 2 18 19 3 20 4 21 5 22 6 23 7 8 24 9 25 10 26 11 27 12 28 13 29 14 30 15 31]"},
}

// wantDFSKernelIDs pins the same builds from the default depth-first
// order, keyed "/dfs", "/dfs+sift" and "/dfs+sift64". They were recorded
// when network builds took that order by default.
var wantDFSKernelIDs = map[string]kernelID{
	"alu4/dfs":          {0xd22c6f00cfe678b7, 152, 193, 7, 150, 42, 151, ""},
	"alu4/dfs+sift":     {0xd22c6f00cfe678b7, 152, 193, 7, 150, 42, 151, "[9 8 0 4 1 5 2 6 3 7]"},
	"alu4/dfs+sift64":   {0xa6e1357824d14ff0, 129, 5911, 11, 151, 38, 155, "[8 9 0 4 1 5 2 6 3 7]"},
	"cmp8/dfs":          {0x7ea5b8b002cac8b7, 90, 93, 7, 88, 14, 79, ""},
	"cmp8/dfs+sift":     {0x7ea5b8b002cac8b7, 90, 93, 7, 88, 14, 79, "[7 15 6 14 5 13 4 12 3 11 2 10 1 9 0 8]"},
	"cmp8/dfs+sift64":   {0xb5ae4c8fcd1de3f5, 76, 3913, 7, 88, 14, 79, "[7 15 6 14 5 13 4 12 3 11 2 10 1 9 0 8]"},
	"dec5/dfs":          {0x7a47d13f627bc5ad, 116, 221, 0, 114, 112, 109, ""},
	"dec5/dfs+sift":     {0x7a47d13f627bc5ad, 116, 221, 0, 114, 112, 109, "[0 1 2 3 4]"},
	"dec5/dfs+sift64":   {0xc021dc8d159f3b7f, 106, 2264, 8, 191, 79, 194, "[0 1 2 3 4]"},
	"mult4/dfs":         {0xef98861476a02bf0, 693, 1442, 224, 691, 429, 1013, ""},
	"mult4/dfs+sift":    {0xef98861476a02bf0, 693, 1442, 224, 691, 429, 1013, "[0 4 1 5 2 6 3 7]"},
	"mult4/dfs+sift64":  {0x800c097acacd423c, 441, 26643, 340, 675, 381, 1143, "[0 7 4 3 1 2 6 5]"},
	"mult5/dfs":         {0xe3f0eedd6c309d5e, 3346, 7627, 1196, 3344, 2716, 4911, ""},
	"mult5/dfs+sift":    {0xe3f0eedd6c309d5e, 3346, 7627, 1196, 3344, 2716, 4911, "[0 5 1 6 2 7 3 8 9 4]"},
	"mult5/dfs+sift64":  {0x77ace659c29d3245, 1887, 187049, 1702, 3025, 2545, 5373, "[9 0 1 8 4 5 6 3 2 7]"},
	"mult6/dfs":         {0xf222fa2441e48af6, 13795, 33648, 5528, 13793, 13093, 20555, ""},
	"mult6/dfs+sift":    {0xc9628e2f9a44385f, 7441, 651747, 6252, 12467, 11732, 20181, "[0 1 2 11 10 9 3 8 4 6 5 7]"},
	"mult6/dfs+sift64":  {0xa502736c1ead221d, 8114, 577880, 6235, 10333, 9920, 18086, "[0 1 2 11 10 9 3 8 4 5 7 6]"},
	"par16/dfs":         {0x8f2960d1d7a4541c, 97, 179, 34, 95, 66, 113, ""},
	"par16/dfs+sift":    {0x8f2960d1d7a4541c, 97, 179, 34, 95, 66, 113, "[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]"},
	"par16/dfs+sift64":  {0x69029061c30cab52, 84, 3857, 47, 95, 67, 126, "[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]"},
	"cmp12/dfs":         {0x2450aecf546591eb, 138, 145, 11, 136, 22, 123, ""},
	"cmp12/dfs+sift":    {0x2450aecf546591eb, 138, 145, 11, 136, 22, 123, "[11 23 10 22 9 21 8 20 7 19 6 18 5 17 4 16 3 15 2 14 1 13 0 12]"},
	"cmp12/dfs+sift64":  {0x7a438152e64ba7ca, 116, 14013, 12, 136, 21, 124, "[11 23 10 22 9 21 8 20 7 19 6 18 5 17 4 16 3 15 2 14 1 13 0 12]"},
	"cmp16/dfs":         {0x7b94e7a49ddcb45f, 186, 197, 15, 184, 30, 167, ""},
	"cmp16/dfs+sift":    {0x7b94e7a49ddcb45f, 186, 197, 15, 184, 30, 167, "[15 31 14 30 13 29 12 28 11 27 10 26 9 25 8 24 7 23 6 22 5 21 4 20 3 19 2 18 1 17 0 16]"},
	"cmp16/dfs+sift64":  {0xbd3ca5c122a09633, 156, 21131, 16, 184, 29, 168, "[15 31 14 30 13 29 12 28 11 27 10 26 9 25 8 24 7 23 6 22 5 21 4 20 3 19 2 18 1 17 0 16]"},
	"radd16/dfs":        {0x67eca94949905b52, 1624, 3016, 16, 1622, 1396, 1620, ""},
	"radd16/dfs+sift":   {0x67eca94949905b52, 1624, 3016, 16, 1622, 1396, 1620, "[0 16 32 1 17 2 18 3 19 4 20 5 21 6 22 7 23 8 24 9 25 10 26 11 27 12 28 13 29 14 30 15 31]"},
	"radd16/dfs+sift64": {0xb3771651ca6ac878, 1288, 214795, 37, 1622, 1375, 1641, "[32 0 16 1 17 2 18 3 19 4 20 5 21 6 22 7 23 8 24 9 25 10 26 11 27 12 28 13 29 14 30 15 31]"},
}

// wantGCSequence pins the explicit GC -> Reorder -> rebuild sequence of
// TestKernelIdentity from the declaration order, one entry per stage.
var wantGCSequence = []kernelID{
	{0xf078e33f5f7f8391, 512, 3129, 0, 0, 0, 0, "[0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15]"},
	{0xbd2f9cf9bb911f58, 25, 6669, 0, 0, 0, 0, "[0 8 1 9 2 10 3 11 4 12 5 13 6 14 7 15]"},
	{0x4be4e2b9878f723a, 216, 7015, 30, 191, 134, 212, "[0 8 1 9 2 10 3 11 4 12 5 13 6 14 7 15]"},
	{0x82b5a2bb1e91ac6e, 25, 7015, 0, 0, 0, 0, "[0 8 1 9 2 10 3 11 4 12 5 13 6 14 7 15]"},
}

// wantTrips pins the budget errors of TestKernelIdentity, keyed
// circuit/limit/policy.
var wantTrips = map[string]string{
	"cmp16/steps/fixed":  "steps/107205/200001",
	"cmp16/steps/sift":   "steps/3990/200129",
	"cmp16/nodes/fixed":  "nodes/20001/37567",
	"cmp16/nodes/sift":   "ok",
	"radd16/steps/fixed": "steps/102691/200001",
	"radd16/steps/sift":  "steps/3090/200227",
	"radd16/nodes/fixed": "nodes/20001/38628",
	"radd16/nodes/sift":  "ok",
}

// wantDFSGCSequence pins the same sequence from the depth-first order.
var wantDFSGCSequence = []kernelID{
	{0xfef125f8cb5084dd, 25, 93, 0, 0, 0, 0, "[7 15 6 14 5 13 4 12 3 11 2 10 1 9 0 8]"},
	{0x1a0d73a11c32a1fa, 25, 1339, 0, 0, 0, 0, "[7 15 6 14 5 13 4 12 3 11 2 10 1 9 0 8]"},
	{0x3c33236d06395c9f, 90, 1432, 30, 65, 14, 79, "[7 15 6 14 5 13 4 12 3 11 2 10 1 9 0 8]"},
	{0x54bbffbdaf024e4d, 25, 1432, 0, 0, 0, 0, "[7 15 6 14 5 13 4 12 3 11 2 10 1 9 0 8]"},
}

// wantDFSTrips pins the budget errors of the depth-first builds, keyed
// circuit/limit/policy. Both circuits fit the budgets that trip the
// declaration order; the "tight" limits sit below their built size.
var wantDFSTrips = map[string]string{
	"cmp16/steps/dfs":             "ok",
	"cmp16/steps/dfs+sift":        "ok",
	"cmp16/nodes/dfs":             "ok",
	"cmp16/nodes/dfs+sift":        "ok",
	"cmp16/tight-steps/dfs":       "steps/139/151",
	"cmp16/tight-steps/dfs+sift":  "steps/139/151",
	"cmp16/tight-nodes/dfs":       "nodes/129/140",
	"cmp16/tight-nodes/dfs+sift":  "nodes/129/21104",
	"radd16/steps/dfs":            "ok",
	"radd16/steps/dfs+sift":       "ok",
	"radd16/nodes/dfs":            "ok",
	"radd16/nodes/dfs+sift":       "ok",
	"radd16/tight-steps/dfs":      "steps/150/151",
	"radd16/tight-steps/dfs+sift": "steps/150/151",
	"radd16/tight-nodes/dfs":      "nodes/129/115",
	"radd16/tight-nodes/dfs+sift": "nodes/129/23185",
}

// TestKernelIdentity checks that the kernel builds the same node graph,
// with the same Ref numbers, sizes, step counts and table counters, as
// the map-based kernel it replaced, and trips budgets at the same point.
// Every check runs from the declaration order against the original pins
// and from the default depth-first order against pins of its own.
func TestKernelIdentity(t *testing.T) {
	reg := obsv.Enable()
	ctx := context.Background()
	untrippable := Budget{MaxSteps: math.MaxInt64}
	var report strings.Builder
	check := func(key string, got, want kernelID, ok bool) {
		t.Helper()
		if !ok || got != want {
			t.Errorf("%s: got %v, want %v (pinned: %v)", key, got, want, ok)
			fmt.Fprintf(&report, "\t%q: %v,\n", key, got)
		}
	}
	type limit struct {
		name string
		b    Budget
	}
	limits := []limit{
		{"steps", Budget{MaxSteps: 200000}},
		{"nodes", Budget{MaxNodes: 20000}},
	}
	// The depth-first order fits both limits above, so its trips are
	// also pinned below its built size.
	tight := append(limits[:2:2],
		limit{"tight-steps", Budget{MaxSteps: 150}},
		limit{"tight-nodes", Budget{MaxNodes: 128}},
	)
	orders := []struct {
		decl   bool
		prefix string // "" keeps the declaration order's original keys
		ids    map[string]kernelID
		gc     []kernelID
		limits []limit
		trips  map[string]string
	}{
		{true, "", wantKernelIDs, wantGCSequence, limits, wantTrips},
		{false, "dfs", wantDFSKernelIDs, wantDFSGCSequence, tight, wantDFSTrips},
	}
	policyName := func(prefix, name string) string {
		switch {
		case prefix == "":
			return name
		case name == "fixed":
			return prefix
		}
		return prefix + "+" + name
	}

	names, nets := identityNetworks(t)
	policies := []struct {
		name string
		p    ReorderPolicy
	}{
		{"fixed", ReorderPolicy{}},
		{"sift", ReorderPolicy{Enable: true}},
		{"sift64", ReorderPolicy{Enable: true, Threshold: 64}},
	}
	for _, o := range orders {
		for _, name := range names {
			nw := nets[name]
			for _, pol := range policies {
				key := name + "/" + policyName(o.prefix, pol.name)
				before := readKernelCounters(reg)
				nb, err := FromNetworkOpts(ctx, nw, BuildOptions{Budget: untrippable, Reorder: pol.p, DeclarationOrder: o.decl})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				want, ok := o.ids[key]
				check(key, identify(nb.M, reg, before, pol.p.Enable), want, ok)
			}
			// The unbudgeted build takes the unchecked path through mk
			// and ITE: the same graph and counters, with no steps
			// counted.
			before := readKernelCounters(reg)
			nb, err := FromNetworkOpts(ctx, nw, BuildOptions{DeclarationOrder: o.decl})
			if err != nil {
				t.Fatal(err)
			}
			key := name + "/" + policyName(o.prefix, "fixed")
			want, ok := o.ids[key]
			want.Steps = 0
			check(name+"/"+policyName(o.prefix, "unbudgeted"), identify(nb.M, reg, before, false), want, ok)
		}

		// GC, then Reorder, then rebuild every node function over the
		// new order in the same manager.
		nb, err := FromNetworkOpts(ctx, nets["cmp8"], BuildOptions{Budget: untrippable, DeclarationOrder: o.decl})
		if err != nil {
			t.Fatal(err)
		}
		m := nb.M
		var outs []Ref
		for _, po := range nets["cmp8"].POs() {
			outs = append(outs, nb.Fn[po])
		}
		stages := []func(){
			func() { m.GC(outs) },
			func() {
				if _, err := m.Reorder(outs); err != nil {
					t.Fatal(err)
				}
			},
			func() {
				rebuildInto(t, m, nets["cmp8"])
			},
			func() { m.GC(outs[:1]) },
		}
		for i, stage := range stages {
			before := readKernelCounters(reg)
			stage()
			got := identify(m, reg, before, true)
			key := fmt.Sprintf("gc-sequence[%d]", i)
			if o.prefix != "" {
				key = fmt.Sprintf("%s-gc-sequence[%d]", o.prefix, i)
			}
			var want kernelID
			ok := i < len(o.gc)
			if ok {
				want = o.gc[i]
			}
			check(key, got, want, ok)
		}

		for _, name := range []string{"cmp16", "radd16"} {
			for _, b := range o.limits {
				for _, pol := range policies[:2] {
					key := fmt.Sprintf("%s/%s/%s", name, b.name, policyName(o.prefix, pol.name))
					_, err := FromNetworkOpts(ctx, nets[name], BuildOptions{
						Budget:           b.b,
						Reorder:          pol.p,
						DeclarationOrder: o.decl,
					})
					got := "ok"
					var be *BudgetError
					if errors.As(err, &be) {
						got = fmt.Sprintf("%s/%d/%d", be.Reason, be.Nodes, be.Steps)
					} else if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					if want, ok := o.trips[key]; !ok || got != want {
						t.Errorf("%s: got trip %s, want %s (pinned: %v)", key, got, want, ok)
						fmt.Fprintf(&report, "\t%q: %q,\n", key, got)
					}
				}
			}
		}
	}
	if report.Len() > 0 {
		t.Logf("observed values:\n%s", report.String())
	}
}

// rebuildInto rebuilds every node function of nw inside m, gate by gate,
// so the rebuild exercises the unique and computed tables of a manager
// that has already been collected and reordered.
func rebuildInto(t *testing.T, m *Manager, nw *logic.Network) {
	t.Helper()
	order, err := nw.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	fn := make(map[logic.NodeID]Ref)
	for i, s := range append(append([]logic.NodeID(nil), nw.PIs()...), nw.FFs()...) {
		fn[s] = m.Var(i)
	}
	for _, id := range order {
		n := nw.Node(id)
		if _, ok := fn[id]; ok {
			continue
		}
		switch n.Type {
		case logic.Const0:
			fn[id] = False
			continue
		case logic.Const1:
			fn[id] = True
			continue
		}
		args := make([]Ref, len(n.Fanin))
		for i, fi := range n.Fanin {
			args[i] = fn[fi]
		}
		f, err := ApplyGate(m, n.Type, args)
		if err != nil {
			t.Fatal(err)
		}
		fn[id] = f
	}
}

// TestProbabilitiesMatchesProbability checks that the shared-memo
// Probabilities returns, for every node function of every identity
// network, the float Probability returns for that root alone, bit for
// bit, under biased input probabilities.
func TestProbabilitiesMatchesProbability(t *testing.T) {
	names, nets := identityNetworks(t)
	for _, name := range names {
		nw := nets[name]
		// The wide circuits also sift, so the check covers a manager
		// whose order sifting has moved.
		sift := len(nw.PIs()) > 16
		nb, err := FromNetworkOpts(context.Background(), nw, BuildOptions{Reorder: ReorderPolicy{Enable: sift}})
		if err != nil {
			t.Fatal(err)
		}
		m := nb.M
		p := make([]float64, m.NumVars())
		for i := range p {
			p[i] = 0.05 + 0.9*float64(i)/float64(len(p))
		}
		got := m.Probabilities(nb.roots, p)
		for i, f := range nb.roots {
			if want := m.Probability(f, p); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("%s root %d: Probabilities %v, Probability %v", name, i, got[i], want)
			}
		}
	}
}
