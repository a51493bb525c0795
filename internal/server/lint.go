package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/fa"
	"repro/internal/server/apiv1"
	"repro/internal/speclint"
	"repro/internal/trace"
)

// handleLint runs speclint over a posted specification FA: the
// structural and semantic rules always, the alphabet-mismatch rule when
// a trace corpus rides along, and a language diff with concrete witness
// traces when a reference FA does. It is stateless — no session is
// created — so spec authors can vet an automaton before spending a
// lattice build on it.
func (s *Server) handleLint(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	var req apiv1.LintRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return err
	}
	spec, err := fa.Read(strings.NewReader(req.FA))
	if err != nil {
		return badRequest(fmt.Errorf("fa: %w", err))
	}
	var set *trace.Set
	if req.Traces != "" {
		if set, err = trace.Read(strings.NewReader(req.Traces)); err != nil {
			return badRequest(fmt.Errorf("traces: %w", err))
		}
	}
	var ref *fa.FA
	if req.RefFA != "" {
		if ref, err = fa.Read(strings.NewReader(req.RefFA)); err != nil {
			return badRequest(fmt.Errorf("ref_fa: %w", err))
		}
	}
	findings, err := speclint.Check(spec, set, ref)
	if err != nil {
		return badRequest(fmt.Errorf("diff: %w", err))
	}
	resp := apiv1.LintResponse{
		Findings: lintFindings(findings),
		Clean:    len(findings) == 0,
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// lintFindings converts speclint findings into their wire form.
func lintFindings(findings []speclint.Finding) []apiv1.LintFinding {
	out := make([]apiv1.LintFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, apiv1.LintFinding{
			Spec: f.Spec, Rule: f.Rule, Message: f.Message, Witness: f.Witness,
		})
	}
	return out
}
