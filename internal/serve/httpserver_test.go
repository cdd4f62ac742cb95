package serve

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestNewHTTPServerSetsTimeouts(t *testing.T) {
	s := NewHTTPServer(":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("timeouts header=%v idle=%v, want both set", s.ReadHeaderTimeout, s.IdleTimeout)
	}
	// ReadTimeout would cancel every handler's context once it expired.
	if s.ReadTimeout != 0 {
		t.Fatalf("ReadTimeout = %v, want 0 (the body deadline is per request)", s.ReadTimeout)
	}
}

// startTestServer serves h through newHTTPServer with the timeouts scaled
// down from the defaults, so the tests run in well under a second.
func startTestServer(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := newHTTPServer("", h, 100*time.Millisecond, 200*time.Millisecond, 200*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestSlowHandlerKeepsContext runs handlers well past the body timeout —
// after reading a body, and on a bodyless GET — and requires r.Context()
// to stay live throughout: the body budget must not bound the handler.
// Whether http.Server.ReadTimeout would cancel it here depends on the Go
// release (newer servers clear the deadline when the body is read), so the
// helper sets its own deadline and this pins the behaviour on every one.
func TestSlowHandlerKeepsContext(t *testing.T) {
	addr := startTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		select {
		case <-r.Context().Done():
			http.Error(w, "context cancelled: "+r.Context().Err().Error(), http.StatusInternalServerError)
		case <-time.After(600 * time.Millisecond):
			io.WriteString(w, "ok")
		}
	}))
	for _, method := range []string{http.MethodPost, http.MethodGet} {
		var body io.Reader
		if method == http.MethodPost {
			body = strings.NewReader("spectrum")
		}
		req, err := http.NewRequest(method, "http://"+addr+"/", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", method, resp.StatusCode, got)
		}
	}
}

// TestStalledClientsAreDisconnected drives the helper's server with three
// stalled clients — half a header, a trickled body and an idle keep-alive
// connection — and requires the server to drop each one.
func TestStalledClientsAreDisconnected(t *testing.T) {
	addr := startTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := io.ReadAll(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		io.WriteString(w, "ok")
	}))

	for name, tc := range map[string]struct {
		send     string
		response bool // a complete response precedes the stall
	}{
		"half header":    {send: "POST /v1/predict HTTP/1.1\r\nHost: x\r\n"},
		"trickled body":  {send: "POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n0123456789"},
		"idle keepalive": {send: "GET / HTTP/1.1\r\nHost: x\r\n\r\n", response: true},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, tc.send); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		conn.SetReadDeadline(start.Add(5 * time.Second))
		br := bufio.NewReader(conn)
		if tc.response {
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		// The server must close the connection: the read ends with EOF
		// (possibly after an error response), not with our deadline.
		rest, err := io.ReadAll(br)
		if err != nil {
			t.Fatalf("%s: connection still open after %v: %v", name, time.Since(start), err)
		}
		if len(rest) > 0 && !strings.HasPrefix(string(rest), "HTTP/1.1 4") {
			t.Fatalf("%s: unexpected bytes before close: %q", name, rest)
		}
		conn.Close()
	}
}
