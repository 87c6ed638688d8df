package router

import "sensei/internal/origin"

// Server binds a Router to a listener with origin.Server's lifecycle
// (Start, Serve, Shutdown, Close): Shutdown(ctx) stops accepting, drains
// in-flight streams on every shard until ctx expires, then force-closes
// stragglers. The router (and with it every shard origin) closes either
// way.
type Server struct {
	*origin.HTTPServer
}

// NewServer wraps rt. The router's lifecycle is tied to the server's:
// Shutdown/Close also close rt.
func NewServer(rt *Router) *Server {
	return &Server{HTTPServer: origin.NewHTTPServer("router", rt, rt.cfg.Origin.Logf, rt.Close)}
}
