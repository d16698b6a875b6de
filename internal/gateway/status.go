package gateway

// Error → HTTP status mapping. Every error a handler can surface is
// classified into a typed status with a machine-readable code; nothing
// falls through as a transport error, so clients always get JSON and
// the chaos engine can assert the full mapping (DESIGN.md §12).

import (
	"encoding/json"
	"errors"
	"io/fs"
	"strconv"

	"maxoid/internal/ams"
	"maxoid/internal/binder"
	"maxoid/internal/health"
	"maxoid/internal/kernel"
	"maxoid/internal/netstack"
	"maxoid/internal/provider"
)

// Gateway-local error classes for request-shape failures.
var (
	errBadRequest = errors.New("gateway: bad request")
	errForbidden  = errors.New("gateway: forbidden")
	errNotFound   = errors.New("gateway: not found")
	errMethod     = errors.New("gateway: method not allowed")
)

// retryAfterSeconds is the Retry-After hint on 429/503: overload and
// read-only degradation are retryable by contract (the binder layer's
// retryable() makes the same promise to local callers).
const retryAfterSeconds = 1

// statusFor classifies an error into (HTTP status, error code).
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, errBadRequest), errors.Is(err, provider.ErrBadURI):
		return 400, "bad_request"
	case errors.Is(err, ErrNoIdentity), errors.Is(err, ErrBadIdentity),
		errors.Is(err, ErrDeadIdentity), errors.Is(err, kernel.ErrDeadProcess):
		return 401, "unauthorized"
	case errors.Is(err, ErrUnknownPrincipal), errors.Is(err, ErrWrongUser),
		errors.Is(err, errForbidden), errors.Is(err, kernel.ErrPermissionDenied),
		errors.Is(err, ams.ErrNoGrant), errors.Is(err, fs.ErrPermission):
		return 403, "forbidden"
	case errors.Is(err, errNotFound), errors.Is(err, provider.ErrNotFound),
		errors.Is(err, fs.ErrNotExist), errors.Is(err, binder.ErrNoEndpoint):
		return 404, "not_found"
	case errors.Is(err, errMethod), errors.Is(err, provider.ErrNotSupported):
		return 405, "method_not_allowed"
	case errors.Is(err, binder.ErrOverloaded):
		return 429, "overloaded"
	case errors.Is(err, health.ErrReadOnly):
		return 503, "read_only"
	default:
		return 500, "internal"
	}
}

// errResponse renders an error as its typed status + JSON body, with
// Retry-After on the retryable statuses.
func errResponse(err error) netstack.Response {
	status, code := statusFor(err)
	resp := jsonResponse(status, map[string]string{"error": err.Error(), "code": code})
	if status == 429 || status == 503 {
		resp.Headers = map[string]string{"Retry-After": strconv.Itoa(retryAfterSeconds)}
	}
	return resp
}

// jsonResponse marshals v as the response body.
func jsonResponse(status int, v any) netstack.Response {
	body, err := json.Marshal(v)
	if err != nil {
		return encodeFailure()
	}
	return netstack.Response{Status: status, Body: body}
}

// encodeFailure is the response to a body that cannot be encoded.
func encodeFailure() netstack.Response {
	return netstack.Response{Status: 500, Body: []byte(`{"error":"encode failure","code":"internal"}`)}
}
