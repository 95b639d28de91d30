package sched

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
)

// Server is the scheduler's HTTP control surface:
//
//	POST   /jobs       submit a JobSpec (JSON body) -> {"id": N}
//	GET    /jobs/{id}  the job's row, as /queue lists it
//	DELETE /jobs/{id}  cancel
//	GET    /queue      scheduler stats + queued/running job rows
//	GET    /metrics    scheduler stats (gauge snapshot)
type Server struct {
	s   *Scheduler
	mux *http.ServeMux
}

// NewServer wraps a scheduler in its HTTP API.
func NewServer(s *Scheduler) *Server {
	srv := &Server{s: s, mux: http.NewServeMux()}
	srv.mux.HandleFunc("/jobs", srv.jobs)
	srv.mux.HandleFunc("/jobs/", srv.job)
	srv.mux.HandleFunc("/queue", srv.queue)
	srv.mux.HandleFunc("/metrics", srv.metrics)
	return srv
}

func (srv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	srv.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// admissionCode maps a Submit error to its HTTP status: admission rejections
// are the client's fault (422), a closed scheduler is 503.
func admissionCode(err error) int {
	switch {
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrZeroPEs), errors.Is(err, ErrTooManyPEs),
		errors.Is(err, ErrQuotaTooLarge), errors.Is(err, ErrDeadlinePassed),
		errors.Is(err, ErrUnknownWorkload):
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// jobs handles POST /jobs.
func (srv *Server) jobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use POST /jobs"))
		return
	}
	var spec JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id, err := srv.s.Submit(spec)
	if err != nil {
		writeErr(w, admissionCode(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"id": id})
}

// job handles GET and DELETE /jobs/{id}.
func (srv *Server) job(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		writeErr(w, http.StatusBadRequest, errors.New("job id must be an integer"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		row, err := srv.s.Job(id)
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, row)
	case http.MethodDelete:
		if err := srv.s.Cancel(id); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
	default:
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET or DELETE"))
	}
}

// queue handles GET /queue: the stats snapshot plus every job row.
func (srv *Server) queue(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, errors.New("use GET /queue"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"stats": srv.s.Stats(),
		"jobs":  srv.s.JobRows(),
	})
}

// metrics handles GET /metrics.
func (srv *Server) metrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, srv.s.Stats())
}
