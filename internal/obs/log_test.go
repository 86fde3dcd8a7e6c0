package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"":      slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) did not fail")
	}
}

func TestNewLoggerLevelsAndAttrs(t *testing.T) {
	var buf bytes.Buffer
	logger := NewLogger(&buf, slog.LevelInfo, slog.String("node", "127.0.0.1:9000"))
	logger.Debug("hidden")
	logger.Info("shown", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("debug line leaked at info level: %q", out)
	}
	if !strings.Contains(out, "shown") || !strings.Contains(out, "node=127.0.0.1:9000") || !strings.Contains(out, "k=v") {
		t.Errorf("info line missing content: %q", out)
	}
}

func TestNopLogger(t *testing.T) {
	// Must be callable at every level without output or panic.
	l := NopLogger().With("k", "v").WithGroup("g")
	l.Debug("a")
	l.Info("b")
	l.Warn("c")
	l.Error("d")
}
