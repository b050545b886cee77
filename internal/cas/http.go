package cas

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// maxBlobBytes bounds a single blob accepted over HTTP. Results are a few
// KB, so the ceiling is generous without being unbounded.
const maxBlobBytes = 1 << 30

// Server exposes a Store over HTTP under a mount prefix:
//
//	GET  <prefix>/blobs/{sum}  the blob (404 unknown or quarantined)
//	HEAD <prefix>/blobs/{sum}  existence probe
//	PUT  <prefix>/blobs/{sum}  store a blob; the body must hash to {sum}
//
// Every served blob was verified against its key on the way out of the
// store, and every accepted blob is verified against the claimed sum on the
// way in, so a corrupt peer (or wire) can never poison the store.
type Server struct {
	store  *Store
	prefix string
}

// NewServer wraps store for mounting at prefix (e.g. "/v1/cas").
func NewServer(store *Store, prefix string) *Server {
	return &Server{store: store, prefix: strings.TrimSuffix(prefix, "/")}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sum, ok := strings.CutPrefix(r.URL.Path, s.prefix+"/blobs/")
	if !ok {
		http.NotFound(w, r)
		return
	}
	if !ValidSum(sum) {
		http.Error(w, "cas: malformed blob sum", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet:
		b, err := s.store.Get(sum)
		if err != nil {
			// ErrCorrupt deliberately maps to 404: the quarantined bytes
			// must never leave the store, so to a client the entry simply
			// does not exist here and a healthy peer is the next stop.
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(b)
	case http.MethodHead:
		if !s.store.Has(sum) {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(http.StatusOK)
	case http.MethodPut:
		b, err := io.ReadAll(io.LimitReader(r.Body, maxBlobBytes+1))
		if err != nil {
			http.Error(w, "cas: read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(b) > maxBlobBytes {
			http.Error(w, "cas: blob too large", http.StatusRequestEntityTooLarge)
			return
		}
		if Sum(b) != sum {
			http.Error(w, "cas: body does not hash to claimed sum", http.StatusBadRequest)
			return
		}
		if _, err := s.store.Put(b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusCreated)
	default:
		http.Error(w, "GET, HEAD, or PUT", http.StatusMethodNotAllowed)
	}
}

// Client fetches and stores blobs against one or more CAS bases (each a
// URL like "http://host:port/v1/cas"). Fetches verify the bytes against
// the requested sum — the wire is never trusted — and fall through to the
// next base on any miss or mismatch, so one corrupt peer degrades to a
// refetch, not a wrong answer. Writes go to the primary (first) base.
type Client struct {
	bases []string
	hc    *http.Client
}

// NewClient returns a client over the given bases. hc may be nil for a
// default client with a 30s timeout.
func NewClient(hc *http.Client, bases ...string) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	trimmed := make([]string, len(bases))
	for i, b := range bases {
		trimmed[i] = strings.TrimSuffix(b, "/")
	}
	return &Client{bases: trimmed, hc: hc}
}

// Fetch returns the verified blob for sum, trying each base in order.
func (c *Client) Fetch(ctx context.Context, sum string) ([]byte, error) {
	var lastErr error = ErrNotFound
	for _, base := range c.bases {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/blobs/"+sum, nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			lastErr = fmt.Errorf("cas: fetch %s from %s: status %d", short(sum), base, resp.StatusCode)
			continue
		}
		if Sum(b) != sum {
			lastErr = fmt.Errorf("%w: %s from %s", ErrCorrupt, short(sum), base)
			continue
		}
		return b, nil
	}
	return nil, lastErr
}

// Put stores b at the primary base and returns its sum.
func (c *Client) Put(ctx context.Context, b []byte) (string, error) {
	if len(c.bases) == 0 {
		return "", fmt.Errorf("cas: client has no bases")
	}
	sum := Sum(b)
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.bases[0]+"/blobs/"+sum, bytes.NewReader(b))
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("cas: put %s: status %d", short(sum), resp.StatusCode)
	}
	return sum, nil
}
