package main

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// The fuzz targets below cover every grammar in flags.go. Each asserts the
// same contract: no panic; on success, every vector has the length its
// grammar promises and every count is >= 1 (hedge delays > 0); on failure,
// the error quotes the offending token. The f.Add seeds are the README's
// examples, plus a three-tier chain with per-edge vectors. Run one with,
// e.g.,
//
//	go test ./cmd/tailbench -run '^$' -fuzz FuzzParseTiers -fuzztime 30s

// namesToken reports whether msg quotes (as %q does) a substring of one of
// the inputs: the token a grammar error must name.
func namesToken(msg string, inputs ...string) bool {
	for rest := msg; ; {
		i := strings.IndexByte(rest, '"')
		if i < 0 {
			return false
		}
		q, err := strconv.QuotedPrefix(rest[i:])
		if err != nil {
			rest = rest[i+1:]
			continue
		}
		tok, _ := strconv.Unquote(q)
		for _, in := range inputs {
			if strings.Contains(in, tok) {
				return true
			}
		}
		rest = rest[i+len(q):]
	}
}

func FuzzParseTiers(f *testing.F) {
	f.Add("xapian:2,xapian:16", "16", "500us")
	f.Add("xapian:2,xapian:16", "16", "2ms")
	f.Add("masstree:2,masstree:4", "", "")
	f.Add("xapian:2,masstree:16:2,silo:4", "4,8", "rtt-floor+500us,0")
	f.Fuzz(func(t *testing.T, tiersArg, fanout, hedge string) {
		edges := strings.Count(tiersArg, ",")
		if fanouts, err := parseEdgeInts(fanout, edges); err != nil {
			if !namesToken(err.Error(), fanout) {
				t.Errorf("parseEdgeInts(%q, %d): error %q names no token", fanout, edges, err)
			}
		} else {
			if len(fanouts) != edges {
				t.Errorf("parseEdgeInts(%q, %d) = %d values", fanout, edges, len(fanouts))
			}
			for _, k := range fanouts {
				if k < 1 {
					t.Errorf("parseEdgeInts(%q, %d) = %v", fanout, edges, fanouts)
				}
			}
		}
		if hedges, err := parseEdgeHedges(hedge, edges); err != nil {
			if !namesToken(err.Error(), hedge) {
				t.Errorf("parseEdgeHedges(%q, %d): error %q names no token", hedge, edges, err)
			}
		} else {
			if len(hedges) != edges {
				t.Errorf("parseEdgeHedges(%q, %d) = %d values", hedge, edges, len(hedges))
			}
			for _, h := range hedges {
				if h != nil && h.Delay <= 0 {
					t.Errorf("parseEdgeHedges(%q, %d): delay %v", hedge, edges, h.Delay)
				}
			}
		}

		tiers, err := parseTiers(tiersArg, fanout, hedge, "leastq", 1)
		if err != nil {
			if !namesToken(err.Error(), tiersArg, fanout, hedge) {
				t.Errorf("parseTiers(%q, %q, %q): error %q names no token", tiersArg, fanout, hedge, err)
			}
			return
		}
		if len(tiers) != edges+1 {
			t.Fatalf("parseTiers(%q): %d tiers, want %d", tiersArg, len(tiers), edges+1)
		}
		for i, tier := range tiers {
			if tier.Cluster.Replicas < 1 || tier.Cluster.Threads < 1 {
				t.Errorf("tier %d: replicas %d threads %d", i, tier.Cluster.Replicas, tier.Cluster.Threads)
			}
			if i == 0 && (tier.FanOut != 0 || tier.Hedge != nil) {
				t.Errorf("tier 0 has an inbound edge: fan-out %d hedge %v", tier.FanOut, tier.Hedge)
			}
			if i > 0 && tier.FanOut < 1 {
				t.Errorf("tier %d: fan-out %d", i, tier.FanOut)
			}
			if tier.Hedge != nil && tier.Hedge.Delay <= 0 {
				t.Errorf("tier %d: hedge delay %v", i, tier.Hedge.Delay)
			}
		}
	})
}

func FuzzParseSlowdowns(f *testing.F) {
	f.Add("0:3", uint8(4))
	f.Add("0:3,2:1.5", uint8(4))
	f.Fuzz(func(t *testing.T, s string, pool uint8) {
		replicas := int(pool)%64 + 1 // ClusterSpec.ReplicaPool is always >= 1
		out, err := parseSlowdowns(s, replicas)
		if err != nil {
			if !namesToken(err.Error(), s) {
				t.Errorf("parseSlowdowns(%q, %d): error %q names no token", s, replicas, err)
			}
			return
		}
		if s == "" {
			if out != nil {
				t.Errorf("parseSlowdowns(\"\") = %v, want nil", out)
			}
			return
		}
		if len(out) != replicas {
			t.Fatalf("parseSlowdowns(%q, %d) = %d factors", s, replicas, len(out))
		}
		for _, fac := range out {
			if math.IsNaN(fac) || math.IsInf(fac, 0) || fac < 1 {
				t.Errorf("parseSlowdowns(%q, %d) = %v", s, replicas, out)
			}
		}
	})
}

func FuzzParseThreadsSpec(f *testing.F) {
	f.Add("2")
	f.Add("4,4,1,1")
	f.Fuzz(func(t *testing.T, s string) {
		base, per, err := parseThreadsSpec(s)
		if err != nil {
			if !namesToken(err.Error(), s) {
				t.Errorf("parseThreadsSpec(%q): error %q names no token", s, err)
			}
			return
		}
		if base < 1 {
			t.Errorf("parseThreadsSpec(%q): base %d", s, base)
		}
		if per == nil {
			return
		}
		if len(per) != strings.Count(s, ",")+1 {
			t.Errorf("parseThreadsSpec(%q): %d entries", s, len(per))
		}
		largest := 0
		for _, n := range per {
			if n < 1 {
				t.Errorf("parseThreadsSpec(%q) = %v", s, per)
			}
			largest = max(largest, n)
		}
		if base != largest {
			t.Errorf("parseThreadsSpec(%q): base %d, want the vector's max %d", s, base, largest)
		}
	})
}

func FuzzGridAxes(f *testing.F) {
	f.Add("const;diurnal:500,300,10s;spike:500,1500,5s,2s", "1,8,16")
	f.Add("const", "1,4")
	f.Fuzz(func(t *testing.T, shapesArg, fanoutsArg string) {
		if shapes, err := parseShapes(shapesArg); err != nil {
			if !namesToken(err.Error(), shapesArg) {
				t.Errorf("parseShapes(%q): error %q names no token", shapesArg, err)
			}
		} else {
			specs := splitList(shapesArg, ";")
			if len(shapes) != len(specs) {
				t.Fatalf("parseShapes(%q): %d shapes for %d entries", shapesArg, len(shapes), len(specs))
			}
			for i, shape := range shapes {
				if (shape == nil) != (specs[i] == "const") {
					t.Errorf("parseShapes(%q): entry %q parsed to %v", shapesArg, specs[i], shape)
				}
			}
		}
		fanouts, err := parseFanouts(fanoutsArg)
		if err != nil {
			if !namesToken(err.Error(), fanoutsArg) {
				t.Errorf("parseFanouts(%q): error %q names no token", fanoutsArg, err)
			}
			return
		}
		if len(fanouts) != len(splitList(fanoutsArg, ",")) {
			t.Errorf("parseFanouts(%q) = %v", fanoutsArg, fanouts)
		}
		for _, k := range fanouts {
			if k < 1 {
				t.Errorf("parseFanouts(%q) = %v", fanoutsArg, fanouts)
			}
		}
	})
}
