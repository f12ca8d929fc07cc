package faultsim

import (
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
)

// Stats returns the injection counters for the profile with the given
// prefix (zero Stats when no profile matches).
func (inj *Injector) Stats(prefix dnswire.Prefix) Stats {
	for _, ps := range inj.profiles {
		if ps.p.Prefix == prefix {
			ps.mu.Lock()
			st := ps.stats
			ps.mu.Unlock()
			return st
		}
	}
	return Stats{}
}

// echoHandler answers every parsable query NOERROR with no records — just
// enough server to observe which queries reach it.
type echoHandler struct {
	seen int
}

func (h *echoHandler) HandleQuery(query []byte) []byte {
	h.seen++
	msg, err := dnswire.Unmarshal(query)
	if err != nil {
		return nil
	}
	wire, err := dnswire.NewResponse(msg, dnswire.RCodeNoError).Marshal()
	if err != nil {
		return nil
	}
	return wire
}

func ptrQuery(t *testing.T, ip dnswire.IPv4, id uint16) []byte {
	t.Helper()
	wire, err := dnswire.NewQuery(id, dnswire.ReverseName(ip), dnswire.TypePTR).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func rcodeOf(t *testing.T, reply []byte) (dnswire.RCode, bool) {
	t.Helper()
	if reply == nil {
		return 0, false
	}
	msg, err := dnswire.Unmarshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	return msg.Header.RCode, true
}

func TestWindowMatch(t *testing.T) {
	cases := []struct {
		w    *Window
		n    uint64
		want bool
	}{
		{nil, 0, false},
		{&Window{After: 2, For: 3}, 1, false},
		{&Window{After: 2, For: 3}, 2, true},
		{&Window{After: 2, For: 3}, 4, true},
		{&Window{After: 2, For: 3}, 5, false},
		{&Window{After: 0, For: 2, Every: 4}, 0, true},
		{&Window{After: 0, For: 2, Every: 4}, 1, true},
		{&Window{After: 0, For: 2, Every: 4}, 2, false},
		{&Window{After: 0, For: 2, Every: 4}, 4, true},
		{&Window{After: 0, For: 2, Every: 4}, 7, false},
		{&Window{After: 10, For: 1, Every: 5}, 9, false},
		{&Window{After: 10, For: 1, Every: 5}, 10, true},
		{&Window{After: 10, For: 1, Every: 5}, 15, true},
		{&Window{After: 10, For: 1, Every: 5}, 16, false},
	}
	for _, tc := range cases {
		if got := tc.w.match(tc.n); got != tc.want {
			t.Errorf("(%+v).match(%d) = %v, want %v", tc.w, tc.n, got, tc.want)
		}
	}
}

// TestInjectorDeterministic replays the same query sequence through two
// identically seeded injectors and requires identical verdicts.
func TestInjectorDeterministic(t *testing.T) {
	prefix := dnswire.MustPrefix("10.9.0.0/24")
	run := func() []string {
		inj := New(simclock.Real{}, 1234, Profile{
			Prefix:       prefix,
			Loss:         0.3,
			ServFailRate: 0.2,
			RefusedRate:  0.1,
		})
		h := inj.Wrap(&echoHandler{})
		var out []string
		for attempt := 0; attempt < 3; attempt++ {
			for i := 1; i <= 40; i++ {
				rc, answered := rcodeOf(t, h.HandleQuery(ptrQuery(t, prefix.Nth(i), uint16(i))))
				if !answered {
					out = append(out, "drop")
				} else {
					out = append(out, rc.String())
				}
			}
		}
		return out
	}
	a, b := run(), run()
	drops, servfails, refused := 0, 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs across identically seeded runs: %q vs %q", i, a[i], b[i])
		}
		switch a[i] {
		case "drop":
			drops++
		case dnswire.RCodeServFail.String():
			servfails++
		case dnswire.RCodeRefused.String():
			refused++
		}
	}
	// With 120 queries at the configured rates every class must occur.
	if drops == 0 || servfails == 0 || refused == 0 {
		t.Fatalf("fault mix unexercised: drops=%d servfails=%d refused=%d", drops, servfails, refused)
	}
}

// TestInjectorPerNameRetryRecovery: a name dropped on its first attempt
// draws a fresh decision on retransmission, so client retries can get
// through partial loss.
func TestInjectorPerNameRetryRecovery(t *testing.T) {
	prefix := dnswire.MustPrefix("10.9.1.0/24")
	inj := New(simclock.Real{}, 7, Profile{Prefix: prefix, Loss: 0.5})
	h := inj.Wrap(&echoHandler{})
	recovered := false
	for i := 1; i <= 64 && !recovered; i++ {
		ip := prefix.Nth(i)
		if _, answered := rcodeOf(t, h.HandleQuery(ptrQuery(t, ip, 1))); answered {
			continue
		}
		for attempt := 0; attempt < 4; attempt++ {
			if _, answered := rcodeOf(t, h.HandleQuery(ptrQuery(t, ip, 2))); answered {
				recovered = true
				break
			}
		}
	}
	if !recovered {
		t.Fatal("no dropped query ever recovered on retransmission")
	}
}

// TestInjectorProfileSelection: the most specific matching prefix governs,
// and queries outside every profile pass through untouched.
func TestInjectorProfileSelection(t *testing.T) {
	wide := dnswire.MustPrefix("10.9.0.0/16")
	narrow := dnswire.MustPrefix("10.9.2.0/24")
	inj := New(simclock.Real{}, 1,
		Profile{Prefix: wide, Drop: &Window{For: 1 << 30}},       // drop everything
		Profile{Prefix: narrow, ServFail: &Window{For: 1 << 30}}, // servfail everything
	)
	inner := &echoHandler{}
	h := inj.Wrap(inner)

	if _, answered := rcodeOf(t, h.HandleQuery(ptrQuery(t, dnswire.MustIPv4("10.9.3.1"), 1))); answered {
		t.Fatal("query under the wide profile was not dropped")
	}
	rc, answered := rcodeOf(t, h.HandleQuery(ptrQuery(t, dnswire.MustIPv4("10.9.2.1"), 2)))
	if !answered || rc != dnswire.RCodeServFail {
		t.Fatalf("narrow profile did not take precedence: answered=%v rc=%v", answered, rc)
	}
	before := inner.seen
	rc, answered = rcodeOf(t, h.HandleQuery(ptrQuery(t, dnswire.MustIPv4("192.0.2.1"), 3)))
	if !answered || rc != dnswire.RCodeNoError || inner.seen != before+1 {
		t.Fatalf("unprofiled query did not pass through: answered=%v rc=%v seen=%d", answered, rc, inner.seen)
	}
}

// TestInjectorFlapWindow: a repeating drop window alternates dead and
// alive phases by query count.
func TestInjectorFlapWindow(t *testing.T) {
	prefix := dnswire.MustPrefix("10.9.4.0/24")
	inj := New(simclock.Real{}, 1, Profile{
		Prefix: prefix,
		Drop:   &Window{After: 4, For: 4, Every: 8},
	})
	h := inj.Wrap(&echoHandler{})
	var got []bool
	for i := 0; i < 16; i++ {
		_, answered := rcodeOf(t, h.HandleQuery(ptrQuery(t, prefix.Nth(1+i%8), uint16(i))))
		got = append(got, answered)
	}
	want := []bool{
		true, true, true, true, false, false, false, false,
		true, true, true, true, false, false, false, false,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: answered=%v, want %v (flap phase wrong)", i, got[i], want[i])
		}
	}
}

// TestInjectorRateLimit: a refusing token bucket REFUSEs once the burst is
// spent and recovers after idling.
func TestInjectorRateLimit(t *testing.T) {
	prefix := dnswire.MustPrefix("10.9.5.0/24")
	inj := New(simclock.Real{}, 1, Profile{
		Prefix: prefix,
		Limit:  &RateLimit{QPS: 50, Burst: 5, Refuse: true},
	})
	h := inj.Wrap(&echoHandler{})
	refused := 0
	for i := 0; i < 30; i++ {
		rc, answered := rcodeOf(t, h.HandleQuery(ptrQuery(t, prefix.Nth(1+i%16), uint16(i))))
		if answered && rc == dnswire.RCodeRefused {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("burst of 30 queries against burst-5 bucket never refused")
	}
	time.Sleep(120 * time.Millisecond) // refill ~6 tokens
	rc, answered := rcodeOf(t, h.HandleQuery(ptrQuery(t, prefix.Nth(1), 99)))
	if !answered || rc != dnswire.RCodeNoError {
		t.Fatalf("bucket never refilled: answered=%v rc=%v", answered, rc)
	}
	if st := inj.Stats(prefix); st.Throttled == 0 || st.Refused == 0 {
		t.Fatalf("stats did not count throttling: %+v", st)
	}
}

// TestInjectorCompose: two stacked injectors both apply.
func TestInjectorCompose(t *testing.T) {
	prefix := dnswire.MustPrefix("10.9.6.0/24")
	outer := New(simclock.Real{}, 1, Profile{Prefix: prefix, ServFail: &Window{After: 1, For: 1 << 30}})
	inner := New(simclock.Real{}, 2, Profile{Prefix: prefix, Drop: &Window{For: 1}})
	h := outer.Wrap(inner.Wrap(&echoHandler{}))
	// Query 0: outer passes (window starts at 1), inner drops.
	if _, answered := rcodeOf(t, h.HandleQuery(ptrQuery(t, prefix.Nth(1), 1))); answered {
		t.Fatal("inner injector's drop did not apply")
	}
	// Query 1: outer SERVFAILs before inner sees it.
	rc, answered := rcodeOf(t, h.HandleQuery(ptrQuery(t, prefix.Nth(2), 2)))
	if !answered || rc != dnswire.RCodeServFail {
		t.Fatalf("outer injector's servfail did not apply: answered=%v rc=%v", answered, rc)
	}
}
