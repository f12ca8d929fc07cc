package fabric

import (
	"errors"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
)

var epoch = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)

func newTestFabric(cfg Config) (*Fabric, *simclock.Simulated) {
	clock := simclock.NewSimulated(epoch)
	return New(clock, cfg), clock
}

func TestDatagramDelivery(t *testing.T) {
	f, clock := newTestFabric(Config{Latency: 10 * time.Millisecond})
	serverAddr := Addr{IP: dnswire.MustIPv4("192.0.2.1"), Port: 53}
	clientAddr := Addr{IP: dnswire.MustIPv4("198.51.100.1"), Port: 40000}

	var got []Datagram
	if _, err := f.Bind(serverAddr, func(dg Datagram) { got = append(got, dg) }); err != nil {
		t.Fatal(err)
	}
	client, err := f.Bind(clientAddr, func(Datagram) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Send(serverAddr, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	clock.Advance(10 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("got %d datagrams, want 1", len(got))
	}
	if string(got[0].Payload) != "hello" || got[0].Src != clientAddr || got[0].Dst != serverAddr {
		t.Fatalf("datagram = %+v", got[0])
	}
}

func TestPayloadIsolation(t *testing.T) {
	f, clock := newTestFabric(Config{})
	dst := Addr{IP: dnswire.MustIPv4("192.0.2.1"), Port: 53}
	var got []byte
	if _, err := f.Bind(dst, func(dg Datagram) { got = dg.Payload }); err != nil {
		t.Fatal(err)
	}
	src, _ := f.Bind(Addr{IP: dnswire.MustIPv4("192.0.2.2"), Port: 1}, nil)
	buf := []byte("abc")
	if err := src.Send(dst, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // mutate after send; receiver must see the original
	clock.Advance(time.Millisecond)
	if string(got) != "abc" {
		t.Fatalf("payload = %q, want abc (sender mutation leaked)", got)
	}
}

func TestBindCollision(t *testing.T) {
	f, _ := newTestFabric(Config{})
	a := Addr{IP: dnswire.MustIPv4("192.0.2.1"), Port: 53}
	if _, err := f.Bind(a, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Bind(a, nil); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("err = %v, want ErrAddrInUse", err)
	}
}

func TestSendToUnboundVanishes(t *testing.T) {
	f, clock := newTestFabric(Config{})
	src, _ := f.Bind(Addr{IP: dnswire.MustIPv4("192.0.2.2"), Port: 1}, nil)
	if err := src.Send(Addr{IP: dnswire.MustIPv4("203.0.113.9"), Port: 53}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second) // must not panic
	st := f.Stats()
	if st.DatagramsSent != 1 || st.DatagramsDelivered != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestClosedEndpoint(t *testing.T) {
	f, clock := newTestFabric(Config{})
	addr := Addr{IP: dnswire.MustIPv4("192.0.2.1"), Port: 53}
	delivered := 0
	ep, err := f.Bind(addr, func(Datagram) { delivered++ })
	if err != nil {
		t.Fatal(err)
	}
	src, _ := f.Bind(Addr{IP: dnswire.MustIPv4("192.0.2.2"), Port: 1}, nil)
	src.Send(addr, []byte("x"))
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if delivered != 0 {
		t.Fatal("datagram delivered to closed endpoint")
	}
	if err := ep.Send(addr, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send on closed = %v, want ErrClosed", err)
	}
	if err := ep.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Close = %v, want ErrClosed", err)
	}
	// Address is reusable after close.
	if _, err := f.Bind(addr, nil); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestPacketLoss(t *testing.T) {
	f, clock := newTestFabric(Config{LossRate: 1.0, Seed: 1})
	addr := Addr{IP: dnswire.MustIPv4("192.0.2.1"), Port: 53}
	delivered := 0
	f.Bind(addr, func(Datagram) { delivered++ })
	src, _ := f.Bind(Addr{IP: dnswire.MustIPv4("192.0.2.2"), Port: 1}, nil)
	for i := 0; i < 20; i++ {
		src.Send(addr, []byte("x"))
	}
	clock.Advance(time.Second)
	if delivered != 0 {
		t.Fatalf("delivered %d packets with LossRate=1", delivered)
	}
	if st := f.Stats(); st.DatagramsDropped != 20 {
		t.Fatalf("dropped = %d, want 20", st.DatagramsDropped)
	}
}

func TestPartialLossIsDeterministic(t *testing.T) {
	run := func() uint64 {
		f, clock := newTestFabric(Config{LossRate: 0.5, Seed: 42})
		addr := Addr{IP: dnswire.MustIPv4("192.0.2.1"), Port: 53}
		f.Bind(addr, func(Datagram) {})
		src, _ := f.Bind(Addr{IP: dnswire.MustIPv4("192.0.2.2"), Port: 1}, nil)
		for i := 0; i < 100; i++ {
			src.Send(addr, []byte("x"))
		}
		clock.Advance(time.Second)
		return f.Stats().DatagramsDelivered
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs delivered %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("delivered %d of 100 at 50%% loss; loss model broken", a)
	}
}

func TestICMPExactBinding(t *testing.T) {
	f, clock := newTestFabric(Config{Latency: time.Millisecond})
	vantage := dnswire.MustIPv4("198.51.100.1")
	target := dnswire.MustIPv4("192.0.2.55")
	var gotSrc dnswire.IPv4
	var gotPayload []byte
	if err := f.BindICMP(vantage, func(src, dst dnswire.IPv4, p []byte) {
		gotSrc = src
		gotPayload = p
	}); err != nil {
		t.Fatal(err)
	}
	f.SendICMP(target, vantage, []byte{8, 0})
	clock.Advance(time.Millisecond)
	if gotSrc != target || string(gotPayload) != string([]byte{8, 0}) {
		t.Fatalf("got src=%v payload=%v", gotSrc, gotPayload)
	}
	if err := f.BindICMP(vantage, nil); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("double BindICMP = %v, want ErrAddrInUse", err)
	}
}

func TestICMPPrefixRoutingLongestMatch(t *testing.T) {
	f, clock := newTestFabric(Config{})
	wide := 0
	narrow := 0
	f.RegisterICMPPrefix(dnswire.MustPrefix("10.0.0.0/8"), func(_, _ dnswire.IPv4, _ []byte) { wide++ })
	f.RegisterICMPPrefix(dnswire.MustPrefix("10.5.0.0/16"), func(_, _ dnswire.IPv4, _ []byte) { narrow++ })
	src := dnswire.MustIPv4("198.51.100.1")
	f.SendICMP(src, dnswire.MustIPv4("10.5.1.1"), nil)
	f.SendICMP(src, dnswire.MustIPv4("10.6.1.1"), nil)
	clock.Advance(time.Second)
	if narrow != 1 || wide != 1 {
		t.Fatalf("narrow=%d wide=%d, want 1 and 1", narrow, wide)
	}
}

func TestICMPExactBeatsPrefix(t *testing.T) {
	f, clock := newTestFabric(Config{})
	exact, pfx := 0, 0
	ip := dnswire.MustIPv4("10.5.1.1")
	f.RegisterICMPPrefix(dnswire.MustPrefix("10.0.0.0/8"), func(_, _ dnswire.IPv4, _ []byte) { pfx++ })
	f.BindICMP(ip, func(_, _ dnswire.IPv4, _ []byte) { exact++ })
	f.SendICMP(dnswire.MustIPv4("198.51.100.1"), ip, nil)
	clock.Advance(time.Second)
	if exact != 1 || pfx != 0 {
		t.Fatalf("exact=%d pfx=%d, want 1 and 0", exact, pfx)
	}
}

func TestJitterBoundsDelay(t *testing.T) {
	f, clock := newTestFabric(Config{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond, Seed: 3})
	addr := Addr{IP: dnswire.MustIPv4("192.0.2.1"), Port: 53}
	var deliveredAt []time.Time
	f.Bind(addr, func(Datagram) { deliveredAt = append(deliveredAt, clock.Now()) })
	src, _ := f.Bind(Addr{IP: dnswire.MustIPv4("192.0.2.2"), Port: 1}, nil)
	for i := 0; i < 50; i++ {
		src.Send(addr, []byte("x"))
	}
	clock.Advance(time.Second)
	if len(deliveredAt) != 50 {
		t.Fatalf("delivered %d, want 50", len(deliveredAt))
	}
	for _, at := range deliveredAt {
		d := at.Sub(epoch)
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("delivery delay %v outside [10ms, 15ms)", d)
		}
	}
}

func TestRoundTripRequestResponse(t *testing.T) {
	f, clock := newTestFabric(Config{Latency: 5 * time.Millisecond})
	server := Addr{IP: dnswire.MustIPv4("192.0.2.1"), Port: 53}
	client := Addr{IP: dnswire.MustIPv4("198.51.100.1"), Port: 40000}

	var echo *Endpoint
	echo, err := f.Bind(server, func(dg Datagram) {
		echo.Send(dg.Src, append([]byte("re:"), dg.Payload...))
	})
	if err != nil {
		t.Fatal(err)
	}

	var got string
	cl, err := f.Bind(client, func(dg Datagram) { got = string(dg.Payload) })
	if err != nil {
		t.Fatal(err)
	}
	cl.Send(server, []byte("ping"))
	clock.Advance(20 * time.Millisecond)
	if got != "re:ping" {
		t.Fatalf("got %q, want re:ping", got)
	}
}
