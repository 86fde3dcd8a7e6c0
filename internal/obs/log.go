package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// NewLogger builds the project's standard structured logger: leveled
// slog text output with the given per-node attributes (e.g. node
// address and ID) attached to every record. All layers — rpcudp,
// chord, core, the cmds — log through one of these instead of ad hoc
// fmt/log prints.
func NewLogger(w io.Writer, level slog.Level, attrs ...slog.Attr) *slog.Logger {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
	if len(attrs) > 0 {
		h2 := h.WithAttrs(attrs)
		return slog.New(h2)
	}
	return slog.New(h)
}

// NopLogger returns a logger that discards everything. Config structs
// default to it so protocol code can log unconditionally.
func NopLogger() *slog.Logger { return slog.New(nopHandler{}) }

type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// ParseLevel maps a -log.level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}
