package core

// Gateway wiring: serving a booted device's providers to remote
// clients over the simulated network. Kept out of Boot so volatile
// tests pay nothing for it; StartGateway is opt-in and Shutdown tears
// it down.

import (
	"fmt"

	"maxoid/internal/gateway"
	"maxoid/internal/netstack"
)

// GatewayHost is the host the gateway binds on the netstack.
const GatewayHost = "maxoid-gw"

// GatewayOptions tune StartGateway.
type GatewayOptions struct {
	// AllowDetached admits identities with no live AMS instance by
	// synthesizing kernel-less callers, as perfbench's sync workloads
	// do; strict identity binding is the default.
	AllowDetached bool
	// Workers caps the requests the gateway serves at once (default 4).
	Workers int
}

// StartGateway serves the system's providers on its network at
// GatewayHost. The returned gateway is also remembered for Shutdown.
// Metrics flow into Options.Metrics when the boot provided a registry.
func (s *System) StartGateway(opts GatewayOptions) (*gateway.Gateway, error) {
	if s.gw != nil {
		return nil, fmt.Errorf("core: gateway already started")
	}
	gw := gateway.New(gateway.Options{
		AMS:           s.AM,
		Providers:     s.Providers,
		Metrics:       s.metrics,
		AllowDetached: opts.AllowDetached,
		Workers:       opts.Workers,
	})
	if err := gw.Serve(s.Net, GatewayHost); err != nil {
		return nil, err
	}
	s.gw = gw
	return gw, nil
}

// GatewayRequest performs one client round trip against the running
// gateway, attaching the identity token — the programmatic equivalent
// of curl with an X-Maxoid-Identity header.
func (s *System) GatewayRequest(token, method, path string, body []byte) (netstack.Response, error) {
	if s.gw == nil {
		return netstack.Response{}, fmt.Errorf("core: gateway not started")
	}
	return s.Net.RoundTrip(netstack.Request{
		Host:    GatewayHost,
		Path:    path,
		Method:  method,
		Body:    body,
		Headers: map[string]string{gateway.IdentityHeader: token},
	})
}
