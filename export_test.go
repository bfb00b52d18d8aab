package hifind

import "github.com/hifind/hifind/internal/core"

// RecorderConfigFor returns the recorder configuration opts build, so
// external tests can drive core recorders exactly as the facade
// configures them.
func RecorderConfigFor(opts ...Option) (core.RecorderConfig, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return core.RecorderConfig{}, err
		}
	}
	rcfg, _ := cfg.build()
	return rcfg, nil
}
