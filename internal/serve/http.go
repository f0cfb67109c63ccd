package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"kdrsolvers/internal/jobspec"
)

// Handler exposes the server over HTTP:
//
//	POST /solve       submit a job (jobspec.Spec JSON body; absent fields
//	                  take the mmsolve flag defaults). 202 + job view,
//	                  or 200 + finished job view with ?wait=1.
//	                  400 invalid spec or data after it, 413 body
//	                  over maxSpecBytes, 503 queue full / draining
//	                  (Retry-After set — resubmit later).
//	GET  /jobs/{id}   job status; result included once done. 404 unknown.
//	GET  /metrics     cumulative counters, gauges, and runtime stats.
//	GET  /healthz     200 while accepting, 503 while draining.
//
// Submission reuses the CLI's validation verbatim: a flag combination
// mmsolve rejects with exit 2 is a body this handler rejects with 400,
// with the same message.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		spec := jobspec.Default()
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		dec.DisallowUnknownFields()
		err := dec.Decode(&spec)
		if err == nil {
			// One spec per request: anything after it but white space is
			// an error, not a second job to drop silently.
			switch _, tail := dec.Token(); tail {
			case io.EOF:
			case nil:
				err = errors.New("data after the job spec")
			default:
				err = tail
			}
		}
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			http.Error(w, "request body over "+strconv.Itoa(maxSpecBytes)+" bytes", http.StatusRequestEntityTooLarge)
			return
		}
		if err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		j, err := s.Submit(spec)
		if err != nil {
			switch {
			case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
			case errors.Is(err, ErrJournal):
				// The job was not accepted: the journal could not make it
				// durable, and an acknowledgment would be a lie.
				http.Error(w, err.Error(), http.StatusInternalServerError)
			default:
				http.Error(w, err.Error(), http.StatusBadRequest)
			}
			return
		}
		status := http.StatusAccepted
		if r.URL.Query().Get("wait") != "" {
			<-j.Done()
			status = http.StatusOK
		}
		writeJSON(w, status, j.Snapshot())
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/jobs/")
		j, ok := s.Job(id)
		if !ok {
			http.Error(w, "unknown job "+id, http.StatusNotFound)
			return
		}
		writeJSON(w, http.StatusOK, j.Snapshot())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Metrics())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})
	return mux
}

// maxSpecBytes bounds a POST /solve body. A job spec is a few hundred
// bytes; the bound only keeps a client from making the decoder buffer an
// arbitrarily large one.
const maxSpecBytes = 1 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode before the status line goes out: a value that cannot be
	// encoded must be a 500, not a 200 with an empty body.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, "serve: encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes()) // a failed write means the client is gone
}
