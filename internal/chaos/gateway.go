// Gateway-chaos engine: the remote boundary under seeded faults.
//
// The engine boots a full system, starts the gateway on the simulated
// network, and drives a seeded single-goroutine request mix across
// three identities with distinct views — an initiator, its delegate,
// and an unrelated app — while fault windows arm the two remote-path
// points: gw.decode (failure before the request is parsed) and gw.view
// (failure after identity auth, before dispatch). Every request runs
// on the engine's goroutine, so a seed fixes the whole run.
//
// Invariants:
//
//  1. Confinement: every successful table read is diffed byte-for-byte
//     against a local resolver query made with the identical caller —
//     the remote view IS the local view. Additionally, volatile marker
//     rows written by the delegate must never appear in any response
//     served to the other identities (no view escape), faults or not.
//  2. Typed errors only: every response carries one of the mapped
//     statuses; a 500 is legal only when it is the typed rendering of
//     an injected fault. No request fails with a transport error: an
//     injected fault is always rendered as a typed response.
//  3. No leaked connections: the run drains and shuts down cleanly
//     (the engine's test runs under testutil.LeakCheck).
package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"maxoid/internal/ams"
	"maxoid/internal/core"
	"maxoid/internal/fault"
	"maxoid/internal/gateway"
	"maxoid/internal/intent"
	"maxoid/internal/provider"
	"maxoid/internal/sqldb"
)

// gwIdentity is one remote principal plus its local twin for the
// differential check.
type gwIdentity struct {
	name  string
	token string
	ctx   *ams.Context
	// delegate marks the one identity allowed to observe volatile
	// marker rows.
	delegate bool
}

// gwRenderRows renders a local query result exactly as the gateway's
// rowsResponse does, for the byte-for-byte diff.
func gwRenderRows(rows *sqldb.Rows) (string, error) {
	out := struct {
		Columns []string        `json:"columns"`
		Rows    [][]sqldb.Value `json:"rows"`
	}{Columns: rows.Columns, Rows: rows.Data}
	if out.Columns == nil {
		out.Columns = []string{}
	}
	if out.Rows == nil {
		out.Rows = [][]sqldb.Value{}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// gwTypedStatuses is the full response surface of DESIGN.md §12.
var gwTypedStatuses = map[int]bool{
	200: true, 201: true, 400: true, 401: true, 403: true,
	404: true, 405: true, 429: true, 503: true,
}

// runGateway performs one seeded gateway-chaos run of ops requests.
func runGateway(seed int64, ops int, r *Report) {
	s, err := core.Boot(core.Options{})
	if err != nil {
		r.failf("boot: %v", err)
		return
	}
	defer s.Shutdown()

	for _, pkg := range []string{"owner", "editor", "rival"} {
		if err := s.Install(&idleApp{pkg: pkg}, ams.Manifest{
			Filters: []intent.Filter{{Actions: []string{intent.ActionView}}},
		}); err != nil {
			r.failf("install %s: %v", pkg, err)
			return
		}
	}
	ctxO, err := s.Launch("owner", intent.Intent{})
	if err != nil {
		r.failf("launch owner: %v", err)
		return
	}
	ctxD, err := s.LaunchAsDelegate("editor", "owner", intent.Intent{})
	if err != nil {
		r.failf("launch delegate: %v", err)
		return
	}
	ctxR, err := s.Launch("rival", intent.Intent{})
	if err != nil {
		r.failf("launch rival: %v", err)
		return
	}
	if _, err := s.StartGateway(core.GatewayOptions{Workers: 2}); err != nil {
		r.failf("start gateway: %v", err)
		return
	}

	idents := []gwIdentity{
		{name: "owner", token: gateway.Token(ctxO.Task()), ctx: ctxO},
		{name: "delegate", token: gateway.Token(ctxD.Task()), ctx: ctxD, delegate: true},
		{name: "rival", token: gateway.Token(ctxR.Task()), ctx: ctxR},
	}

	// The delegate's volatile marker: rows carrying this prefix live in
	// Vol(owner) and may appear ONLY in responses to the delegate.
	const volMarker = "vol-escape-probe"
	if _, err := ctxD.Resolver().Insert("content://user_dictionary/words",
		provider.Values{"word": volMarker + "-seed"}); err != nil {
		r.failf("delegate seed insert: %v", err)
		return
	}

	rng := rand.New(rand.NewSource(seed ^ 0x9a7e3a7e))

	// Fault windows over the two remote-path points.
	windows := []faultWindow{
		{"decode", 40, []fault.Spec{{Point: "gw.decode", Prob: 0.3}}},
		{"view", 40, []fault.Spec{{Point: "gw.view", Prob: 0.3}}},
		{"mixed", 50, []fault.Spec{
			{Point: "gw.decode", Prob: 0.15},
			{Point: "gw.view", Prob: 0.15}}},
	}
	windowLeft := 0

	// injectedResp recognizes the typed renderings of an injected
	// fault: gw.decode surfaces as 400 bad_request (the request never
	// parsed), gw.view as 500 internal. Both must say so in the body.
	injectedResp := func(status int, body []byte) bool {
		if status != 500 && status != 400 {
			return false
		}
		var e struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if json.Unmarshal(body, &e) != nil {
			return false
		}
		if status == 500 && e.Code != "internal" {
			return false
		}
		if status == 400 && e.Code != "bad_request" {
			return false
		}
		return strings.Contains(e.Error, "injected")
	}

	// request performs one round trip and applies the shared response
	// invariants; returns the response for op-specific checks.
	request := func(id gwIdentity, method, path string, body []byte) (int, []byte, bool) {
		r.Ops++
		resp, err := s.GatewayRequest(id.token, method, path, body)
		if err != nil {
			r.failf("op %d: transport error surfaced to client (%s %s as %s): %v",
				r.Ops, method, path, id.name, err)
			return 0, nil, false
		}
		if !gwTypedStatuses[resp.Status] && !injectedResp(resp.Status, resp.Body) {
			r.failf("op %d: untyped response %d %s (%s %s as %s)",
				r.Ops, resp.Status, resp.Body, method, path, id.name)
			return resp.Status, resp.Body, false
		}
		// View escape: only the delegate may ever observe the marker.
		if !id.delegate && strings.Contains(string(resp.Body), volMarker) {
			r.failf("op %d: VIEW ESCAPE — %s response to %s contains delegate volatile marker: %s",
				r.Ops, path, id.name, resp.Body)
			return resp.Status, resp.Body, false
		}
		return resp.Status, resp.Body, true
	}

	tables := []struct{ uri, path string }{
		{"content://user_dictionary/words", "/v1/user_dictionary/words?order=_id"},
		{"content://media/files", "/v1/media/files?order=_id"},
	}

	for i := 0; i < ops && len(r.Failures) == 0; i++ {
		if windowLeft > 0 {
			windowLeft--
			if windowLeft == 0 {
				fault.Arm(seed) // disarm
			}
		} else if rng.Float64() < 0.05 {
			w := windows[rng.Intn(len(windows))]
			fault.Arm(seed+int64(i), w.specs...)
			windowLeft = w.ops
		}

		id := idents[rng.Intn(len(idents))]
		switch p := rng.Float64(); {
		case p < 0.40: // differential table read
			tc := tables[rng.Intn(len(tables))]
			status, body, ok := request(id, "GET", tc.path, nil)
			if !ok || status != 200 {
				break // injected 500: fault absorbed the read, nothing to diff
			}
			local, err := id.ctx.Resolver().Query(tc.uri, nil, "", "_id")
			if err != nil {
				r.failf("op %d: local twin query %s as %s: %v", r.Ops, tc.uri, id.name, err)
				break
			}
			want, err := gwRenderRows(local)
			if err != nil {
				r.failf("op %d: render: %v", r.Ops, err)
				break
			}
			if string(body) != want {
				r.failf("op %d: CONFINEMENT DIVERGENCE %s as %s\nremote: %s\nlocal:  %s",
					r.Ops, tc.path, id.name, body, want)
			}
		case p < 0.60: // insert: public for owner/rival, volatile for delegate
			word := fmt.Sprintf("pub-%s-%d", id.name, i)
			if id.delegate {
				word = fmt.Sprintf("%s-%d", volMarker, i)
			}
			status, body, ok := request(id, "POST", "/v1/user_dictionary/words",
				[]byte(fmt.Sprintf(`{"word":%q,"frequency":%d}`, word, rng.Intn(100))))
			if ok && status != 201 && !injectedResp(status, body) && status != 429 {
				r.failf("op %d: insert as %s = %d %s, want 201/429/injected",
					r.Ops, id.name, status, body)
			}
		case p < 0.70: // schema introspection
			status, body, ok := request(id, "GET", "/v1/user_dictionary/_schema", nil)
			if ok && status != 200 && !injectedResp(status, body) {
				r.failf("op %d: _schema as %s = %d %s", r.Ops, id.name, status, body)
			}
		case p < 0.78: // unknown table → 404
			status, body, ok := request(id, "GET", "/v1/user_dictionary/nosuch", nil)
			if ok && status != 404 && !injectedResp(status, body) {
				r.failf("op %d: unknown table = %d %s, want 404", r.Ops, status, body)
			}
		case p < 0.86: // unknown principal → 403
			status, body, ok := request(gwIdentity{name: "ghost", token: "u0:ghost"},
				"GET", "/v1/user_dictionary/words", nil)
			if ok && status != 403 && !injectedResp(status, body) {
				r.failf("op %d: ghost identity = %d %s, want 403", r.Ops, status, body)
			}
		case p < 0.93: // bad method → 405
			status, body, ok := request(id, "PATCH", "/v1/user_dictionary/words", nil)
			if ok && status != 405 && !injectedResp(status, body) {
				r.failf("op %d: PATCH = %d %s, want 405", r.Ops, status, body)
			}
		default: // malformed body → 400
			status, body, ok := request(id, "POST", "/v1/user_dictionary/words", []byte(`{not json`))
			if ok && status != 400 && !injectedResp(status, body) {
				r.failf("op %d: malformed body = %d %s, want 400", r.Ops, status, body)
			}
		}
	}

	fault.Arm(seed) // disarm

	// Close out clean: with faults disarmed, every identity's remote
	// view must again equal its local view, and the marker stays confined.
	if len(r.Failures) == 0 {
		for _, id := range idents {
			resp, err := s.GatewayRequest(id.token, "GET", "/v1/user_dictionary/words?order=_id", nil)
			if err != nil || resp.Status != 200 {
				r.failf("final read as %s: %v %d %s", id.name, err, resp.Status, resp.Body)
				continue
			}
			local, err := id.ctx.Resolver().Query("content://user_dictionary/words", nil, "", "_id")
			if err != nil {
				r.failf("final local read as %s: %v", id.name, err)
				continue
			}
			want, _ := gwRenderRows(local)
			if string(resp.Body) != want {
				r.failf("final divergence as %s:\nremote: %s\nlocal:  %s", id.name, resp.Body, want)
			}
			if !id.delegate && strings.Contains(string(resp.Body), volMarker) {
				r.failf("final VIEW ESCAPE to %s: %s", id.name, resp.Body)
			}
		}
	}
}
