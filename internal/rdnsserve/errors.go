package rdnsserve

import (
	"fmt"
	"net/http"

	"rdnsprivacy/internal/rdnsclient"
)

// statusClientClosedRequest is nginx's convention for "client went away
// before we answered"; it never reaches a live client but keeps canceled
// work distinguishable from failures in logs and metrics.
const statusClientClosedRequest = 499

// apiError pairs an envelope code with its HTTP status. Handlers return
// these; the serving layer writes them as the v1 envelope.
type apiError struct {
	status int
	code   string
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errBadParam(format string, args ...any) *apiError {
	return &apiError{http.StatusBadRequest, rdnsclient.CodeBadParam, fmt.Sprintf(format, args...)}
}

func errInvalidCursor() *apiError {
	return &apiError{http.StatusBadRequest, rdnsclient.CodeInvalidCursor, "cursor: malformed"}
}

func errCursorMismatch() *apiError {
	return &apiError{http.StatusBadRequest, rdnsclient.CodeInvalidCursor, "cursor: does not belong to this query"}
}

func errBeforeHistory(msg string) *apiError {
	return &apiError{http.StatusBadRequest, rdnsclient.CodeBeforeHistory, msg}
}

func errNotFound(path string) *apiError {
	return &apiError{http.StatusNotFound, rdnsclient.CodeNotFound, "no such endpoint: " + path}
}

func errMethodNotAllowed(method string) *apiError {
	return &apiError{http.StatusMethodNotAllowed, rdnsclient.CodeMethodNotAllowed, "method " + method + " not allowed"}
}

func errForbidden(msg string) *apiError {
	return &apiError{http.StatusForbidden, rdnsclient.CodeForbidden, msg}
}

func errRateLimited() *apiError {
	return &apiError{http.StatusTooManyRequests, rdnsclient.CodeRateLimited, "per-client rate limit exceeded"}
}

func errOverloaded() *apiError {
	return &apiError{http.StatusServiceUnavailable, rdnsclient.CodeOverloaded, "server at concurrency limit, request shed"}
}

func errCanceled() *apiError {
	return &apiError{statusClientClosedRequest, rdnsclient.CodeCanceled, "client canceled the request"}
}

func errInternal(err error) *apiError {
	return &apiError{http.StatusInternalServerError, rdnsclient.CodeInternal, err.Error()}
}
