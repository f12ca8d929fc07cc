package dnsclient

import (
	"context"
	"fmt"

	"rdnsprivacy/internal/dnswire"
)

// ErrorKind classifies a typed resolution error.
type ErrorKind int

// Error kinds, mirroring the outcome taxonomy.
const (
	// KindTimeout: every attempt went unanswered.
	KindTimeout ErrorKind = iota
	// KindServFail: the server reported a failure.
	KindServFail
	// KindNXDomain: authoritative denial — the name does not exist.
	KindNXDomain
	// KindNoData: the name exists but carries no record of the type asked.
	KindNoData
	// KindRefused: the server does not serve the zone.
	KindRefused
	// KindMalformed: the response could not be parsed or did not match
	// the question.
	KindMalformed
	// KindCanceled: the lookup's context was cancelled.
	KindCanceled
)

// String returns a mnemonic.
func (k ErrorKind) String() string {
	switch k {
	case KindTimeout:
		return "timeout"
	case KindServFail:
		return "servfail"
	case KindNXDomain:
		return "nxdomain"
	case KindNoData:
		return "nodata"
	case KindRefused:
		return "refused"
	case KindMalformed:
		return "malformed"
	case KindCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("kind%d", int(k))
	}
}

// ErrTimeout is the sentinel for errors.Is matching: it carries only a
// kind, and errors.Is(err, ErrTimeout) holds for any timed-out *Error.
var ErrTimeout = &Error{Kind: KindTimeout}

// Error is a typed resolution error. It replaces positional status-field
// checks: callers match kinds with errors.Is (against ErrTimeout, or an
// *Error carrying the kind) or unpack details with errors.As.
type Error struct {
	// Kind classifies the failure.
	Kind ErrorKind
	// Question is what was asked, when known.
	Question dnswire.Question
	// Attempts is how many transmissions were made, when known.
	Attempts int
	// wrapped is an underlying cause (e.g. context.Canceled).
	wrapped error
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Question.Name != "" {
		return fmt.Sprintf("dnsclient: %s: %s", e.Question.Name, e.Kind)
	}
	return "dnsclient: " + e.Kind.String()
}

// Is matches any *Error of the same kind, so
// errors.Is(err, dnsclient.ErrTimeout) works regardless of the error's
// question and attempt details.
func (e *Error) Is(target error) bool {
	t, ok := target.(*Error)
	return ok && t.Kind == e.Kind
}

// Unwrap exposes the underlying cause; a KindCanceled error wraps the
// context's error so errors.Is(err, context.Canceled) (or
// context.DeadlineExceeded) also holds.
func (e *Error) Unwrap() error { return e.wrapped }

// RetryableFault reports whether the failure is transient and worth
// retrying: timeouts and server-side failures. Authoritative denials,
// refusals, malformed responses, and cancellations are not. The scan
// engine's resilience layer keys its retry policy off this method
// (scanengine cannot import dnsclient without a cycle, so the contract is
// structural).
func (e *Error) RetryableFault() bool {
	return e.Kind == KindTimeout || e.Kind == KindServFail
}

// ThrottleFault reports whether the failure looks like rate limiting:
// REFUSED is the in-band signal name servers use to shed scanner load.
// The resilience layer's adaptive rate control slows down when it sees
// these.
func (e *Error) ThrottleFault() bool {
	return e.Kind == KindRefused
}

// Err converts the response outcome to a typed error. Successful lookups
// return nil. Note that for reverse-tree measurement NXDOMAIN and NODATA
// are the record-absent signal, not failures — scan-layer consumers should
// branch on the outcome (or scanengine.Result.Absent) rather than treating
// every non-nil Err as a retryable fault.
func (r Response) Err() error {
	var kind ErrorKind
	switch r.Outcome {
	case OutcomeSuccess:
		return nil
	case OutcomeNXDomain:
		kind = KindNXDomain
	case OutcomeNoData:
		kind = KindNoData
	case OutcomeServFail:
		kind = KindServFail
	case OutcomeRefused:
		kind = KindRefused
	case OutcomeTimeout:
		kind = KindTimeout
	case OutcomeCanceled:
		cause := r.Cause
		if cause == nil {
			cause = context.Canceled
		}
		return &Error{Kind: KindCanceled, Question: r.Question, Attempts: r.Attempts, wrapped: cause}
	default:
		kind = KindMalformed
	}
	return &Error{Kind: kind, Question: r.Question, Attempts: r.Attempts}
}
