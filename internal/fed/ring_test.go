package fed

import "testing"

func TestRingDeterministicAcrossOrder(t *testing.T) {
	a := newRing([]string{"http://a", "http://b", "http://c"})
	b := newRing([]string{"http://c", "http://a", "http://b"})
	keys := []string{
		boardKey("VC707", "VC707-00FA"),
		boardKey("KC705-A", "KC705-013B"),
		boardKey("ZC702", "ZC702-0007"),
		boardKey("VC707", "VC707-00FA/fleet-01"),
	}
	for _, k := range keys {
		if got, want := a.owner(k, nil), b.owner(k, nil); got != want {
			t.Fatalf("owner(%q) depends on daemon order: %q vs %q", k, got, want)
		}
	}
}

func TestRingSkipsDeadAndSpreadsLoad(t *testing.T) {
	daemons := []string{"http://a", "http://b", "http://c"}
	r := newRing(daemons)
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		k := boardKey("VC707", serialN(i))
		d := r.owner(k, nil)
		counts[d]++
		// A dead owner's keys move to a survivor; live keys stay put.
		alt := r.owner(k, func(x string) bool { return x == d })
		if alt == d || alt == "" {
			t.Fatalf("owner(%q) skipping %q returned %q", k, d, alt)
		}
		if kept := r.owner(k, func(x string) bool { return x != d && x != alt && false }); kept != d {
			t.Fatalf("owner(%q) unstable without skips: %q then %q", k, d, kept)
		}
	}
	for _, d := range daemons {
		if counts[d] == 0 {
			t.Fatalf("daemon %s owns no keys: %v", d, counts)
		}
	}
	if r.owner("anything", func(string) bool { return true }) != "" {
		t.Fatal("owner with every daemon dead should be empty")
	}
}

func serialN(i int) string {
	const hex = "0123456789ABCDEF"
	return "VC707-0" + string([]byte{hex[(i>>8)&0xF], hex[(i>>4)&0xF], hex[i&0xF]})
}
