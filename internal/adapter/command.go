package adapter

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"mathcloud/internal/core"
)

// CommandConfig is the internal service configuration of the Command
// adapter.  It describes the command to execute and the mappings between
// service parameters and command-line arguments or external files, exactly
// as in the paper: exposing an existing application as a service reduces to
// writing this configuration, without any code.
type CommandConfig struct {
	// Command is the program to run.
	Command string `json:"command"`
	// Args are the command-line arguments.  Occurrences of {name} are
	// replaced with the string form of the input parameter, {name.path}
	// with the staged file path of a file-valued input, and {workdir}
	// with the job scratch directory.
	Args []string `json:"args,omitempty"`
	// Stdin, when non-empty, is a template (same placeholders) fed to
	// the process on standard input.
	Stdin string `json:"stdin,omitempty"`
	// Env lists extra environment entries, each a template.
	Env []string `json:"env,omitempty"`
	// InputFiles maps input parameter names to file names created in the
	// work directory before the run.  The file receives the staged file
	// content for file-valued parameters or the string form of inline
	// values; the parameter's {name.path} placeholder then resolves to
	// this file.
	InputFiles map[string]string `json:"inputFiles,omitempty"`
	// OutputFiles maps output parameter names to file names (relative to
	// the work directory) that the command produces.  They are published
	// as file resources.
	OutputFiles map[string]string `json:"outputFiles,omitempty"`
	// StdoutOutput, when non-empty, names the output parameter that
	// receives the captured standard output as a string.
	StdoutOutput string `json:"stdoutOutput,omitempty"`
	// StdoutJSON, when true, parses standard output as a JSON object and
	// uses its members as output parameters (overrides StdoutOutput).
	StdoutJSON bool `json:"stdoutJSON,omitempty"`
}

// CommandAdapter converts a service request into the execution of a
// configured command in a separate process.
type CommandAdapter struct {
	cfg CommandConfig
}

// NewCommandAdapter builds a CommandAdapter from its JSON configuration.
func NewCommandAdapter(config json.RawMessage) (Interface, error) {
	var cfg CommandConfig
	if err := json.Unmarshal(config, &cfg); err != nil {
		return nil, fmt.Errorf("command adapter: %w", err)
	}
	if strings.TrimSpace(cfg.Command) == "" {
		return nil, fmt.Errorf("command adapter: empty command")
	}
	return &CommandAdapter{cfg: cfg}, nil
}

// Kind implements Interface.
func (a *CommandAdapter) Kind() string { return "command" }

// Invoke implements Interface.
func (a *CommandAdapter) Invoke(ctx context.Context, req *Request) (*Result, error) {
	// Materialize configured input files first, so that {name.path}
	// placeholders can refer to them.
	files := make(map[string]string, len(req.Files))
	for k, v := range req.Files {
		files[k] = v
	}
	for param, fileName := range a.cfg.InputFiles {
		path := filepath.Join(req.WorkDir, filepath.Clean(fileName))
		var content []byte
		if staged, ok := files[param]; ok {
			data, err := os.ReadFile(staged)
			if err != nil {
				return nil, fmt.Errorf("command adapter: read staged input %q: %w", param, err)
			}
			content = data
		} else if val, ok := req.Inputs[param]; ok {
			content = []byte(valueString(val))
		} else {
			return nil, fmt.Errorf("command adapter: inputFiles refers to unknown parameter %q", param)
		}
		if err := os.WriteFile(path, content, 0o600); err != nil {
			return nil, fmt.Errorf("command adapter: write input file for %q: %w", param, err)
		}
		files[param] = path
	}

	expand := func(tpl string) (string, error) { return expandTemplate(tpl, req, files) }

	args := make([]string, 0, len(a.cfg.Args))
	for _, tpl := range a.cfg.Args {
		arg, err := expand(tpl)
		if err != nil {
			return nil, err
		}
		args = append(args, arg)
	}

	cmd := exec.CommandContext(ctx, a.cfg.Command, args...)
	cmd.Dir = req.WorkDir
	cmd.Env = os.Environ()
	for _, tpl := range a.cfg.Env {
		entry, err := expand(tpl)
		if err != nil {
			return nil, err
		}
		cmd.Env = append(cmd.Env, entry)
	}
	if a.cfg.Stdin != "" {
		stdin, err := expand(a.cfg.Stdin)
		if err != nil {
			return nil, err
		}
		cmd.Stdin = strings.NewReader(stdin)
	}
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr

	req.Progress(fmt.Sprintf("executing %s", a.cfg.Command))
	if err := cmd.Run(); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("command adapter: %s failed: %s", a.cfg.Command, msg)
	}

	res := &Result{Outputs: core.Values{}, Files: map[string]string{}}
	switch {
	case a.cfg.StdoutJSON:
		var outs map[string]any
		if err := json.Unmarshal(stdout.Bytes(), &outs); err != nil {
			return nil, fmt.Errorf("command adapter: parse stdout as JSON object: %w", err)
		}
		for k, v := range outs {
			res.Outputs[k] = v
		}
	case a.cfg.StdoutOutput != "":
		res.Outputs[a.cfg.StdoutOutput] = stdout.String()
	}
	for param, fileName := range a.cfg.OutputFiles {
		path := filepath.Join(req.WorkDir, filepath.Clean(fileName))
		if _, err := os.Stat(path); err != nil {
			return nil, fmt.Errorf("command adapter: expected output file %q for %q: %w",
				fileName, param, err)
		}
		res.Files[param] = path
	}
	return res, nil
}

// expandTemplate substitutes {name}, {name.path} and {workdir}
// placeholders.  Literal braces are written as {{ and }}.
func expandTemplate(tpl string, req *Request, files map[string]string) (string, error) {
	var b strings.Builder
	for {
		open := strings.IndexByte(tpl, '{')
		if open < 0 {
			b.WriteString(strings.ReplaceAll(tpl, "}}", "}"))
			return b.String(), nil
		}
		if strings.HasPrefix(tpl[open:], "{{") {
			b.WriteString(strings.ReplaceAll(tpl[:open], "}}", "}"))
			b.WriteByte('{')
			tpl = tpl[open+2:]
			continue
		}
		closing := strings.IndexByte(tpl[open:], '}')
		if closing < 0 {
			b.WriteString(strings.ReplaceAll(tpl, "}}", "}"))
			return b.String(), nil
		}
		closing += open
		b.WriteString(strings.ReplaceAll(tpl[:open], "}}", "}"))
		key := tpl[open+1 : closing]
		tpl = tpl[closing+1:]
		switch {
		case key == "workdir":
			b.WriteString(req.WorkDir)
		case strings.HasSuffix(key, ".path"):
			param := strings.TrimSuffix(key, ".path")
			path, ok := files[param]
			if !ok {
				return "", fmt.Errorf("command adapter: placeholder {%s}: parameter %q has no file", key, param)
			}
			b.WriteString(path)
		default:
			val, ok := req.Inputs[key]
			if !ok {
				return "", fmt.Errorf("command adapter: placeholder {%s}: unknown parameter", key)
			}
			b.WriteString(valueString(val))
		}
	}
}

// valueString renders a parameter value for command-line or file use.
func valueString(v any) string {
	switch x := v.(type) {
	case string:
		return x
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%g", x)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case nil:
		return ""
	default:
		data, err := json.Marshal(v)
		if err != nil {
			return fmt.Sprintf("%v", v)
		}
		return string(data)
	}
}
