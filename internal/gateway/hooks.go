package gateway

// Request hooks, in the style of sqliteapi's hook chain: pre-hooks run
// after identity resolution and may veto the request with any error
// (mapped through statusFor, so a hook can impose its own 403s);
// post-hooks observe the final status and never affect the response.

// RequestInfo is the per-request record handed to hooks.
type RequestInfo struct {
	Method string
	Path   string
	// Identity is the resolved task notation ("" before or without
	// auth). Hooks are its only readers, so it is filled only when a
	// hook is installed.
	Identity string
	Provider string // routed authority ("" until routed), or "_fs"/"_grant"
}

// PreHook runs before dispatch; a non-nil error rejects the request.
type PreHook func(*RequestInfo) error

// PostHook observes the completed request and its final HTTP status.
type PostHook func(*RequestInfo, int)

// hookChain is the ordered hook registration.
type hookChain struct {
	pre  []PreHook
	post []PostHook
}

func (h *hookChain) runPre(info *RequestInfo) error {
	for _, fn := range h.pre {
		if err := fn(info); err != nil {
			return err
		}
	}
	return nil
}

func (h *hookChain) runPost(info *RequestInfo, status int) {
	for _, fn := range h.post {
		fn(info, status)
	}
}
