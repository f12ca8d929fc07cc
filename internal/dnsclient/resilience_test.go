package dnsclient

import (
	"context"
	"errors"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/telemetry"
)

// waitResponse waits (in real time) for the async done callback, advancing
// nothing: used where completion comes from the context watch goroutine
// rather than from a clock event.
func waitResponse(t *testing.T, ch <-chan Response) Response {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("lookup never completed")
		return Response{}
	}
}

// TestCancellationDuringRetryReturnsImmediately is the regression test for
// the retry loop counting context cancellation as one more retryable
// timeout. A lookup against a black-holing server is cancelled mid-retry:
// it must complete with OutcomeCanceled wrapping ctx.Err() right away, not
// burn through the remaining retry budget and report OutcomeTimeout.
func TestCancellationDuringRetryReturnsImmediately(t *testing.T) {
	reg := telemetry.NewRegistry()
	env := newEnv(t, fabric.Config{}, WithTimeout(100*time.Millisecond), WithRetries(8), WithTelemetry(reg))
	env.server.SetFailureMode(dnsserver.FailureMode{DropRate: 1.0, Seed: 1})

	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan Response, 1)
	env.res.LookupPTR(ctx, dnswire.MustIPv4("192.0.2.10"), func(r Response) { ch <- r })

	// Let two attempts time out so the query is genuinely mid-retry.
	env.clock.Advance(250 * time.Millisecond)
	select {
	case r := <-ch:
		t.Fatalf("completed before cancel: %+v", r)
	default:
	}
	cancel()
	got := waitResponse(t, ch)
	if got.Outcome != OutcomeCanceled {
		t.Fatalf("outcome = %v, want CANCELED", got.Outcome)
	}
	if !errors.Is(got.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want errors.Is(..., context.Canceled)", got.Err())
	}
	if !errors.Is(got.Err(), ErrCanceled) {
		t.Fatalf("Err() = %v, want errors.Is(..., ErrCanceled)", got.Err())
	}
	if got.Attempts >= 8 {
		t.Fatalf("attempts = %d: cancellation burned through the retry budget", got.Attempts)
	}

	// No further retransmissions after cancellation.
	retransmits := reg.Counter(MetricRetransmits)
	before := retransmits.Value()
	env.clock.Advance(5 * time.Second)
	if after := retransmits.Value(); after != before {
		t.Fatalf("retransmitted after cancel: %d -> %d", before, after)
	}
	if got := reg.Counter(MetricOutcome(OutcomeTimeout)).Value(); got != 0 {
		t.Fatalf("cancellation counted as timeout: %d", got)
	}
	if got := reg.Counter(MetricOutcome(OutcomeCanceled)).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricOutcome(OutcomeCanceled), got)
	}
}

// TestCancellationBeforeStartReturnsWrappedErr covers the already-cancelled
// path: done must fire with the wrapped context error without any
// transmission.
func TestCancellationBeforeStartReturnsWrappedErr(t *testing.T) {
	env := newEnv(t, fabric.Config{}, WithTimeout(100*time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ch := make(chan Response, 1)
	env.res.LookupPTR(ctx, dnswire.MustIPv4("192.0.2.10"), func(r Response) { ch <- r })
	got := waitResponse(t, ch)
	if got.Outcome != OutcomeCanceled {
		t.Fatalf("outcome = %v", got.Outcome)
	}
	if !errors.Is(got.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want wrapped context.Canceled", got.Err())
	}
	if got.Attempts != 0 {
		t.Fatalf("attempts = %d, want 0", got.Attempts)
	}
}

// TestBackoffSpacesRetransmissions checks the full-jitter schedule: with
// backoff enabled a timed-out attempt is NOT retransmitted at the timeout
// instant; it happens within the backoff window, and the lookup still
// exhausts its full attempt budget.
func TestBackoffSpacesRetransmissions(t *testing.T) {
	reg := telemetry.NewRegistry()
	retransmits := reg.Counter(MetricRetransmits)
	env := newEnv(t, fabric.Config{}, WithTimeout(50*time.Millisecond), WithRetries(2),
		WithBackoff(80*time.Millisecond, 0), WithSeed(7), WithTelemetry(reg))
	env.server.SetFailureMode(dnsserver.FailureMode{DropRate: 1.0, Seed: 1})

	ch := make(chan Response, 1)
	env.res.LookupPTR(context.Background(), dnswire.MustIPv4("192.0.2.10"), func(r Response) { ch <- r })

	// Immediately after the first timeout no retransmission may have
	// happened yet — with immediate-retry semantics the counter would
	// already be 1 here.
	env.clock.Advance(50 * time.Millisecond)
	if got := retransmits.Value(); got != 0 {
		t.Fatalf("retransmitted at the timeout instant despite backoff (%s=%d)", MetricRetransmits, got)
	}
	// Window for attempt 1 is [0, 160ms): after advancing past it the
	// retry must have gone out.
	env.clock.Advance(160 * time.Millisecond)
	if got := retransmits.Value(); got != 1 {
		t.Fatalf("%s = %d after first backoff window, want 1", MetricRetransmits, got)
	}
	// Let the rest of the schedule play out.
	env.clock.Advance(5 * time.Second)
	got := waitResponse(t, ch)
	if got.Outcome != OutcomeTimeout {
		t.Fatalf("outcome = %v, want TIMEOUT", got.Outcome)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", got.Attempts)
	}
}

// TestBackoffScheduleDeterministicAcrossSeeds: identical seeds give
// identical completion times; the schedule replays bit-identically.
func TestBackoffScheduleDeterministicAcrossSeeds(t *testing.T) {
	run := func() time.Duration {
		env := newEnv(t, fabric.Config{}, WithTimeout(50*time.Millisecond), WithRetries(3),
			WithBackoff(40*time.Millisecond, 0), WithSeed(99))
		env.server.SetFailureMode(dnsserver.FailureMode{DropRate: 1.0, Seed: 1})
		ch := make(chan Response, 1)
		env.res.LookupPTR(context.Background(), dnswire.MustIPv4("192.0.2.10"), func(r Response) { ch <- r })
		env.clock.Advance(30 * time.Second)
		got := waitResponse(t, ch)
		return got.RTT
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
}

// TestServFailRetryExhaustsBudget: with the policy on, SERVFAIL responses
// consume the retry budget like timeouts and the final outcome is still
// SERVFAIL when the server never recovers.
func TestServFailRetryExhaustsBudget(t *testing.T) {
	env := newEnv(t, fabric.Config{}, WithTimeout(100*time.Millisecond), WithRetries(2), WithServFailRetry())
	env.server.SetFailureMode(dnsserver.FailureMode{ServFailRate: 1.0, Seed: 3})
	ch := make(chan Response, 1)
	env.res.LookupPTR(context.Background(), dnswire.MustIPv4("192.0.2.10"), func(r Response) { ch <- r })
	env.clock.Advance(5 * time.Second)
	got := waitResponse(t, ch)
	if got.Outcome != OutcomeServFail {
		t.Fatalf("outcome = %v, want SERVFAIL", got.Outcome)
	}
	if got.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (retries consumed)", got.Attempts)
	}
	// Policy off: a SERVFAIL completes on the first attempt.
	env2 := newEnv(t, fabric.Config{}, WithTimeout(100*time.Millisecond), WithRetries(2))
	env2.server.SetFailureMode(dnsserver.FailureMode{ServFailRate: 1.0, Seed: 3})
	ch2 := make(chan Response, 1)
	env2.res.LookupPTR(context.Background(), dnswire.MustIPv4("192.0.2.10"), func(r Response) { ch2 <- r })
	env2.clock.Advance(time.Second)
	got2 := waitResponse(t, ch2)
	if got2.Outcome != OutcomeServFail || got2.Attempts != 1 {
		t.Fatalf("without policy: outcome=%v attempts=%d, want SERVFAIL/1", got2.Outcome, got2.Attempts)
	}
}

// TestServFailRetryRecovers: against a partial SERVFAIL rate a retried
// query can succeed where a single-shot one fails — the point of treating
// SERVFAIL as a transient, retryable fault. The seed loop keeps the test
// black-box with respect to the server's decision hash.
func TestServFailRetryRecovers(t *testing.T) {
	ip := dnswire.MustIPv4("192.0.2.10")
	for seed := int64(0); seed < 64; seed++ {
		env := newEnv(t, fabric.Config{}, WithTimeout(100*time.Millisecond), WithRetries(3), WithServFailRetry())
		env.zone.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("host.example.edu"))
		env.server.SetFailureMode(dnsserver.FailureMode{ServFailRate: 0.5, Seed: seed})
		ch := make(chan Response, 1)
		env.res.LookupPTR(context.Background(), ip, func(r Response) { ch <- r })
		env.clock.Advance(5 * time.Second)
		got := waitResponse(t, ch)
		if got.Outcome == OutcomeSuccess && got.Attempts > 1 {
			return // recovered via retry
		}
	}
	t.Fatal("no seed in [0,64) produced a SERVFAIL followed by a successful retry")
}

// TestRetryableFaultClassification pins the structural contract the scan
// engine's resilience layer depends on: timeouts and SERVFAILs retry,
// REFUSED throttles, authoritative answers and cancellations do neither.
func TestRetryableFaultClassification(t *testing.T) {
	cases := []struct {
		kind      ErrorKind
		retryable bool
		throttle  bool
	}{
		{KindTimeout, true, false},
		{KindServFail, true, false},
		{KindRefused, false, true},
		{KindNXDomain, false, false},
		{KindNoData, false, false},
		{KindMalformed, false, false},
		{KindCanceled, false, false},
	}
	for _, tc := range cases {
		e := &Error{Kind: tc.kind}
		if e.RetryableFault() != tc.retryable {
			t.Errorf("%v: RetryableFault() = %v, want %v", tc.kind, e.RetryableFault(), tc.retryable)
		}
		if e.ThrottleFault() != tc.throttle {
			t.Errorf("%v: ThrottleFault() = %v, want %v", tc.kind, e.ThrottleFault(), tc.throttle)
		}
	}
}

// TestUDPLookupContextCancellation: the synchronous client's retry loop
// must also exit immediately on cancellation with a wrapped ctx error.
func TestUDPLookupContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := &UDPClient{Server: "127.0.0.1:1", Timeout: 50 * time.Millisecond, Retries: 5}
	resp, err := c.LookupPTRContext(ctx, dnswire.MustIPv4("192.0.2.10"))
	if resp.Outcome != OutcomeCanceled {
		t.Fatalf("outcome = %v, want CANCELED", resp.Outcome)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}
