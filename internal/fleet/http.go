package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Handler returns the coordinator's protocol surface, mounted by sesa-serve
// under /v1/fleet:
//
//	POST /register    announce a worker, get an id + cadences
//	POST /lease       pull one batch (204 when nothing is pending)
//	POST /heartbeat   renew leases, learn which batches to abandon
//	POST /complete    report a finished batch's results
//	POST /deregister  graceful departure; held batches are requeued
//	GET  /workers     per-worker status rows
//
// Requests with an unknown worker id get 410 Gone — the worker's cue to
// re-register after a coordinator restart.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeBody(w, r, &req) {
			return
		}
		writeJSON(w, http.StatusOK, c.Register(req))
	})
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeBody(w, r, &req) {
			return
		}
		resp, ok, err := c.Lease(req)
		if err != nil {
			writeProtoError(w, err)
			return
		}
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := c.Heartbeat(req)
		if err != nil {
			writeProtoError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeBody(w, r, &req) {
			return
		}
		resp, err := c.Complete(req)
		if err != nil {
			writeProtoError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /deregister", func(w http.ResponseWriter, r *http.Request) {
		var req DeregisterRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := c.Deregister(req); err != nil {
			writeProtoError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, struct{}{})
	})
	mux.HandleFunc("GET /workers", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, c.WorkerStatus())
	})
	return mux
}

// decodeBody parses a JSON request body, answering 400 itself on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("fleet: bad request: %v", err)})
		return false
	}
	return true
}

// writeProtoError maps protocol errors to status codes.
func writeProtoError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ErrUnknownWorker) {
		status = http.StatusGone
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeJSON writes v as JSON with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errGone is the client-side classification of a 410: the coordinator does
// not know this worker id any more.
var errGone = errors.New("fleet: coordinator does not know this worker (re-register)")

// postJSON is the worker-side protocol call: POST in, decode out. A 204
// returns false with no error (no content to decode); a 410 returns
// errGone; other non-2xx statuses surface the body as the error.
func postJSON(client *http.Client, url string, in, out any) (bool, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return false, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return false, nil
	case resp.StatusCode == http.StatusGone:
		return false, errGone
	case resp.StatusCode < 200 || resp.StatusCode > 299:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("fleet: %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return false, fmt.Errorf("fleet: %s: decoding response: %w", url, err)
		}
	}
	return true, nil
}
