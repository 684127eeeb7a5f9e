package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"mgsilt/internal/core"
	"mgsilt/internal/imgio"
	"mgsilt/internal/metrics"
	"mgsilt/internal/promtext"
	"mgsilt/internal/report"
)

// maxBodyBytes bounds the submit payload (uploaded .rects layouts are
// a few hundred KB at the scales this service accepts).
const maxBodyBytes = 8 << 20

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/mask.pgm", s.handleMask)
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client went away; nothing useful to do
}

type errorPayload struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrResultLost):
		code = http.StatusInternalServerError
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotDone), errors.Is(err, ErrTerminal),
		errors.Is(err, ErrNotResumable), errors.Is(err, ErrStillRunning):
		code = http.StatusConflict
	default:
		code = http.StatusBadRequest
	}
	writeJSON(w, code, errorPayload{Error: err.Error()})
}

type submitResponse struct {
	Job       Status `json:"job"`
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, fmt.Errorf("service: bad job spec: %w", err))
		return
	}
	st, err := s.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, submitResponse{
		Job:       st,
		StatusURL: "/v1/jobs/" + st.ID,
		ResultURL: "/v1/jobs/" + st.ID + "/result",
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// resultPayload is the machine-readable outcome of a finished job: the
// Table 1 metric group (internal/report shapes) plus stitch-error and
// cluster accounting detail.
type resultPayload struct {
	ID           string         `json:"id"`
	Method       string         `json:"method"`
	Metrics      report.Metrics `json:"metrics"`
	AreaPx       float64        `json:"area_px"`
	StitchErrors int            `json:"stitch_errors"`
	MaxStitch    float64        `json:"max_stitch"`
	DeviceJobs   int            `json:"device_jobs"`
	DeviceBusyS  float64        `json:"device_busy_seconds"`
	TransferS    float64        `json:"device_transfer_seconds"`
	MaskURL      string         `json:"mask_url"`
}

func resultOf(id string, res *core.Result) resultPayload {
	return resultPayload{
		ID:     id,
		Method: res.Method,
		Metrics: report.Metrics{
			L2:     res.L2,
			PVBand: res.PVBand,
			Stitch: res.StitchLoss,
			TATSec: res.TAT.Seconds(),
		},
		AreaPx:       res.Area,
		StitchErrors: len(res.Errors),
		MaxStitch:    metrics.MaxLoss(res.Errors),
		DeviceJobs:   res.Stats.Jobs,
		DeviceBusyS:  res.Stats.TotalBusy.Seconds(),
		TransferS:    res.Stats.Transfer.Seconds(),
		MaskURL:      "/v1/jobs/" + id + "/mask.pgm",
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, _, err := s.summary(id) // the metrics only: no mask read
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resultOf(id, res))
}

func (s *Server) handleMask(w http.ResponseWriter, r *http.Request) {
	res, _, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "image/x-portable-graymap")
	w.WriteHeader(http.StatusOK)
	_ = imgio.WritePGM(w, res.Mask.Binarize(0.5)) // client went away
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	st, err := s.Resume(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

type healthPayload struct {
	Status         string  `json:"status"`
	Workers        int     `json:"workers"`
	ComputeWorkers int     `json:"compute_workers"`
	Queued         int     `json:"queued"`
	Running        int     `json:"running"`
	UptimeSec      float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	status := "ok"
	code := http.StatusOK
	if snap.closed {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthPayload{
		Status:         status,
		Workers:        snap.workers,
		ComputeWorkers: snap.computeWorkers,
		Queued:         snap.queued,
		Running:        snap.running,
		UptimeSec:      snap.uptime.Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", promtext.ContentType)
	s.metrics.write(w, s.snapshot())
}
