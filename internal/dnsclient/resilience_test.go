package dnsclient

import (
	"context"
	"errors"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/faultsim"
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
	env.server.SetInjector(faultsim.New(nil, 1, faultsim.Profile{Loss: 1.0}))

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
	if !errors.Is(got.Err(), &Error{Kind: KindCanceled}) {
		t.Fatalf("Err() = %v, want errors.Is(..., &Error{Kind: KindCanceled})", got.Err())
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

// TestServFailCompletesOnFirstAttempt: the resolver retries only after a
// timeout. A SERVFAIL is an answer and completes the lookup; retrying it is
// the scan engine's resilience layer's call (Error.RetryableFault).
func TestServFailCompletesOnFirstAttempt(t *testing.T) {
	env := newEnv(t, fabric.Config{}, WithTimeout(100*time.Millisecond), WithRetries(2))
	env.server.SetInjector(faultsim.New(nil, 3, faultsim.Profile{ServFailRate: 1.0}))
	ch := make(chan Response, 1)
	env.res.LookupPTR(context.Background(), dnswire.MustIPv4("192.0.2.10"), func(r Response) { ch <- r })
	env.clock.Advance(time.Second)
	got := waitResponse(t, ch)
	if got.Outcome != OutcomeServFail || got.Attempts != 1 {
		t.Fatalf("outcome=%v attempts=%d, want SERVFAIL/1", got.Outcome, got.Attempts)
	}
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
