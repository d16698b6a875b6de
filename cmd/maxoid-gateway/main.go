// Command maxoid-gateway exercises the schema-reflected remote
// gateway (internal/gateway) end to end.
//
// It boots a device, installs a sample app plus a delegate editor,
// starts the gateway on the simulated network, and replays a
// curl-style session — schema introspection, CRUD through the
// delegate's COW view, the confinement counter-probe, and the typed
// error surface — printing each request/response pair.
package main

import (
	"fmt"
	"log"

	"maxoid/internal/ams"
	"maxoid/internal/core"
	"maxoid/internal/gateway"
	"maxoid/internal/intent"
)

func main() {
	if err := runDemo(); err != nil {
		log.Fatal(err)
	}
}

// demoApp is the minimal installable package the demo needs.
type demoApp struct{ pkg string }

func (a *demoApp) Package() string                           { return a.pkg }
func (a *demoApp) OnStart(*ams.Context, intent.Intent) error { return nil }

func runDemo() error {
	s, err := core.Boot(core.Options{})
	if err != nil {
		return err
	}
	defer s.Shutdown()
	if err := s.Install(&demoApp{"notes"}, ams.Manifest{}); err != nil {
		return err
	}
	editorFilters := []intent.Filter{{Actions: []string{intent.ActionView}}}
	if err := s.Install(&demoApp{"editor"}, ams.Manifest{Filters: editorFilters}); err != nil {
		return err
	}
	if _, err := s.Launch("notes", intent.Intent{}); err != nil {
		return err
	}
	ctxD, err := s.LaunchAsDelegate("editor", "notes", intent.Intent{})
	if err != nil {
		return err
	}
	if _, err := s.StartGateway(core.GatewayOptions{}); err != nil {
		return err
	}
	host := core.GatewayHost
	fmt.Printf("gateway serving on host %q — identities: notes (initiator), %s (delegate)\n\n",
		host, gateway.Token(ctxD.Task()))

	curl := func(token, method, path string, body []byte) {
		fmt.Printf("$ curl -X %s -H 'X-Maxoid-Identity: %s' http://%s%s", method, token, host, path)
		if body != nil {
			fmt.Printf(" -d '%s'", body)
		}
		fmt.Println()
		resp, err := s.GatewayRequest(token, method, path, body)
		if err != nil {
			fmt.Printf("  transport error: %v\n\n", err)
			return
		}
		fmt.Printf("  %d %s\n\n", resp.Status, truncate(resp.Body, 200))
	}

	tokA := "u0:notes"
	tokD := gateway.Token(ctxD.Task())

	fmt.Println("# Schema introspection")
	curl(tokA, "GET", "/v1/user_dictionary/_schema", nil)

	fmt.Println("# The initiator writes a public word")
	curl(tokA, "POST", "/v1/user_dictionary/words", []byte(`{"word":"maxoid","frequency":100}`))

	fmt.Println("# The delegate's COW view: sees it, then edits privately")
	curl(tokD, "GET", "/v1/user_dictionary/words", nil)
	curl(tokD, "POST", "/v1/user_dictionary/words", []byte(`{"word":"draft","frequency":1}`))

	fmt.Println("# Confinement: the delegate's volatile row never reaches the initiator")
	curl(tokA, "GET", "/v1/user_dictionary/words?order=_id", nil)

	fmt.Println("# Typed errors: bad identity, unknown table, wrong method")
	curl("u0:ghost", "GET", "/v1/user_dictionary/words", nil)
	curl(tokA, "GET", "/v1/user_dictionary/nosuch", nil)
	curl(tokA, "PATCH", "/v1/user_dictionary/words", nil)
	return nil
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "…"
}
