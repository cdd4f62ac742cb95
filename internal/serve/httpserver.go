package serve

import (
	"io"
	"net/http"
	"time"
)

// Listener timeouts shared by specserve and specfront. Without them a
// client that sends half a header, trickles a body or parks an idle
// keep-alive connection holds a goroutine and a socket for as long as it
// likes. Request bodies are predict spectra and published models (at most
// MaxBodyBytes), so a 30 s body budget is generous on any link that can
// carry them; handler run time is bounded separately by RequestTimeout.
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpBodyTimeout       = 30 * time.Second
	httpIdleTimeout       = 120 * time.Second
)

// NewHTTPServer returns an *http.Server for addr and h with the shared
// header, body and idle timeouts set.
//
// The body budget is not http.Server.ReadTimeout: that deadline stays on
// the connection while the handler runs, and once the body is read the
// server's background read hits it and cancels r.Context(), cutting off
// any handler (a failover chain, a publish broadcast, a pprof profile)
// that outlives it. Instead each request with a body gets a read deadline
// when its handler starts, cleared as soon as the body reaches EOF.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return newHTTPServer(addr, h, httpReadHeaderTimeout, httpBodyTimeout, httpIdleTimeout)
}

func newHTTPServer(addr string, h http.Handler, header, body, idle time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           bodyDeadline(h, body),
		ReadHeaderTimeout: header,
		IdleTimeout:       idle,
	}
}

// bodyDeadline bounds how long reading a request body may take, from the
// start of the handler, without bounding the handler itself.
func bodyDeadline(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil && r.Body != http.NoBody {
			rc := http.NewResponseController(w)
			if rc.SetReadDeadline(time.Now().Add(d)) == nil {
				r.Body = &deadlineBody{ReadCloser: r.Body, rc: rc}
			}
		}
		h.ServeHTTP(w, r)
	})
}

// deadlineBody clears the connection's read deadline when the body ends.
// Only a clean EOF clears it: after a timeout the deadline must stay, or
// the server's post-handler drain of a trickled body would block forever.
type deadlineBody struct {
	io.ReadCloser
	rc      *http.ResponseController
	cleared bool
}

func (b *deadlineBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF && !b.cleared {
		b.cleared = true
		b.rc.SetReadDeadline(time.Time{})
	}
	return n, err
}
