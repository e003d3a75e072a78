//! A miniature Verilog elaborator.
//!
//! The paper validates generated designs by running them through Vivado's
//! elaboration/synthesis flow; no HDL toolchain exists here, so this module
//! provides the first stage of that pipeline: it parses the emitted Verilog
//! into module definitions (ports, parameters, nets, instances and generate
//! loops), resolves the instance hierarchy from the top module, and checks
//! it: every `module` must close with `endmodule`, the top module's
//! `ND`/`NM`/`S` defaults must equal the design's configuration, named port
//! connections must exist on the instantiated module, connected signals
//! must be declared in the parent, and generate widths must resolve against
//! parameter values.

use crate::verilog::{VerilogDesign, VerilogFile};
use std::collections::{BTreeMap, HashMap};

/// Direction of a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    /// `input`
    Input,
    /// `output`
    Output,
}

/// One parsed port.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
}

/// One parsed instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Module being instantiated.
    pub module: String,
    /// Instance name (`u_...`).
    pub name: String,
    /// Named connections `.port(signal)`.
    pub connections: Vec<(String, String)>,
}

/// One parsed module definition.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// Module name.
    pub name: String,
    /// Parameters with integer defaults.
    pub parameters: BTreeMap<String, i64>,
    /// Ports in declaration order.
    pub ports: Vec<Port>,
    /// Declared internal nets (`wire`/`reg` identifiers).
    pub nets: Vec<String>,
    /// Instances inside the module body.
    pub instances: Vec<Instance>,
    /// Generate-loop bounds, as written (`g < S` → `"S"`).
    pub generate_bounds: Vec<String>,
}

/// The elaborated design.
#[derive(Debug, Clone, Default)]
pub struct Elaboration {
    /// All parsed modules by name.
    pub modules: HashMap<String, Module>,
    /// Hierarchy lines (`top/u_cholesky:cholesky_unit`).
    pub hierarchy: Vec<String>,
    /// Hard errors (unterminated or undefined modules, top parameter
    /// defaults that differ from the configuration, bad connections,
    /// unresolved bounds).
    pub errors: Vec<String>,
    /// Soft warnings (unconnected child ports).
    pub warnings: Vec<String>,
}

impl Elaboration {
    /// `true` when elaboration produced no errors.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Total replicated leaf units implied by the generate loops of one
    /// module, resolved against its parameter defaults (e.g. the Cholesky
    /// unit's `S` Update lanes).
    pub fn resolved_generate_width(&self, module: &str) -> Option<i64> {
        let m = self.modules.get(module)?;
        let bound = m.generate_bounds.first()?;
        if let Ok(v) = bound.parse::<i64>() {
            return Some(v);
        }
        m.parameters.get(bound.as_str()).copied()
    }
}

fn ident(s: &str) -> String {
    s.chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

/// Parses one source file's modules into `out`; a module with no
/// `endmodule` is reported in `errors` and left out.
fn parse_file(file: &VerilogFile, out: &mut HashMap<String, Module>, errors: &mut Vec<String>) {
    let mut current: Option<Module> = None;
    let unterminated = |m: Module| format!("{}: module {} has no endmodule", file.name, m.name);
    for raw in file.contents.lines() {
        let line = raw.trim();
        if line.starts_with("//") || line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("module ") {
            let name = ident(rest);
            let open = current.replace(Module {
                name,
                ..Module::default()
            });
            errors.extend(open.map(unterminated));
            continue;
        }
        if line.starts_with("endmodule") {
            if let Some(m) = current.take() {
                out.insert(m.name.clone(), m);
            }
            continue;
        }
        let Some(m) = current.as_mut() else { continue };

        if let Some(rest) = line.strip_prefix("parameter ") {
            // `parameter ND = 28,`
            let name = ident(rest);
            if let Some(eq) = rest.find('=') {
                let val: String = rest[eq + 1..]
                    .trim()
                    .chars()
                    .take_while(|c| c.is_ascii_digit())
                    .collect();
                if let Ok(v) = val.parse::<i64>() {
                    m.parameters.insert(name, v);
                }
            }
            continue;
        }
        if let Some(rest) = strip_port_prefix(line) {
            let (dir, decl) = rest;
            // Skip type words (wire/reg) and widths `[7:0]`.
            let mut tokens = decl.split_whitespace().peekable();
            let mut name = String::new();
            for t in tokens.by_ref() {
                if t == "wire" || t == "reg" || t.starts_with('[') {
                    continue;
                }
                name = ident(t);
                break;
            }
            if !name.is_empty() {
                m.ports.push(Port { name, dir });
            }
            continue;
        }
        if line.starts_with("wire") || line.starts_with("reg") {
            // One or more comma-separated declarations on one line.
            let body = line
                .trim_start_matches("wire")
                .trim_start_matches("reg")
                .trim();
            for part in body.split(&[',', ';'][..]) {
                // Multiple declarations may share a line; strip repeated
                // type keywords and widths per segment.
                let mut part = part.trim();
                loop {
                    if let Some(rest) = part.strip_prefix("wire") {
                        part = rest.trim();
                    } else if let Some(rest) = part.strip_prefix("reg") {
                        part = rest.trim();
                    } else if let Some(close) = part.find(']') {
                        if part.starts_with('[') {
                            part = part[close + 1..].trim();
                        } else {
                            break;
                        }
                    } else {
                        break;
                    }
                }
                let name = ident(part);
                if !name.is_empty() {
                    m.nets.push(name);
                }
            }
            continue;
        }
        if line.starts_with("for (") || line.starts_with("for(") {
            // `for (g = 0; g < S; g = g + 1) begin : lanes`
            if let Some(lt) = line.find('<') {
                let bound: String = line[lt + 1..]
                    .trim()
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !bound.is_empty() {
                    m.generate_bounds.push(bound);
                }
            }
            continue;
        }
        // Instance head: `<module> [#(...)] u_<name> (`.
        if let Some(pos) = line.find(" u_") {
            let module = ident(&line[..pos]);
            if module.is_empty() || module == "module" {
                continue;
            }
            let name = ident(&line[pos + 1..]);
            m.instances.push(Instance {
                module,
                name,
                connections: Vec::new(),
            });
            continue;
        }
        // Connection lines: `.clk(clk), .rst_n(rst_n),`.
        if line.starts_with('.') {
            if let Some(inst) = m.instances.last_mut() {
                for conn in line.split('.').skip(1) {
                    let port = ident(conn);
                    let signal = conn
                        .find('(')
                        .map(|open| {
                            let rest = &conn[open + 1..];
                            let close = rest.find(')').unwrap_or(rest.len());
                            ident(rest[..close].trim())
                        })
                        .unwrap_or_default();
                    if !port.is_empty() {
                        inst.connections.push((port, signal));
                    }
                }
            }
        }
    }
    errors.extend(current.map(unterminated));
}

fn strip_port_prefix(line: &str) -> Option<(PortDir, &str)> {
    if let Some(rest) = line.strip_prefix("input ") {
        Some((PortDir::Input, rest))
    } else {
        line.strip_prefix("output ")
            .map(|rest| (PortDir::Output, rest))
    }
}

/// Elaborates an emitted design from its top module.
pub fn elaborate(design: &VerilogDesign) -> Elaboration {
    let mut elab = Elaboration::default();
    for file in &design.files {
        parse_file(file, &mut elab.modules, &mut elab.errors);
    }

    let Some(top) = elab.modules.get("archytas_top").cloned() else {
        elab.errors.push("top module archytas_top not found".into());
        return elab;
    };
    let config = &design.config;
    for (param, value) in [("ND", config.nd), ("NM", config.nm), ("S", config.s)] {
        let default = top.parameters.get(param).copied();
        if default != i64::try_from(value).ok() {
            elab.errors.push(format!(
                "archytas_top: parameter {param} default {default:?} does not match \
                 configuration ({value})"
            ));
        }
    }
    let mut stack = vec![(String::from("archytas_top"), top)];
    while let Some((path, module)) = stack.pop() {
        for inst in &module.instances {
            let child_path = format!("{path}/{}:{}", inst.name, inst.module);
            elab.hierarchy.push(child_path.clone());
            let Some(child) = elab.modules.get(&inst.module).cloned() else {
                elab.errors
                    .push(format!("{child_path}: undefined module {}", inst.module));
                continue;
            };
            // Every named connection must be a child port; every connected
            // signal must be declared in the parent.
            for (port, signal) in &inst.connections {
                if !child.ports.iter().any(|p| &p.name == port) {
                    elab.errors
                        .push(format!("{child_path}: no port '{port}' on {}", inst.module));
                }
                let declared = module.nets.iter().any(|n| n == signal)
                    || module.ports.iter().any(|p| &p.name == signal);
                if !declared && !signal.is_empty() {
                    elab.errors.push(format!(
                        "{child_path}: signal '{signal}' not declared in {}",
                        module.name
                    ));
                }
            }
            // Unconnected child ports are warnings (Vivado: floating pins).
            for p in &child.ports {
                if !inst.connections.iter().any(|(port, _)| port == &p.name) {
                    elab.warnings
                        .push(format!("{child_path}: port '{}' left unconnected", p.name));
                }
            }
            stack.push((child_path, child));
        }
        // Generate bounds must resolve to a positive integer.
        for bound in &module.generate_bounds {
            let resolved = bound
                .parse::<i64>()
                .ok()
                .or_else(|| module.parameters.get(bound.as_str()).copied());
            match resolved {
                Some(v) if v >= 1 => {}
                _ => elab
                    .errors
                    .push(format!("{path}: unresolved generate bound '{bound}'")),
            }
        }
    }
    elab
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verilog::emit_verilog;
    use archytas_hw::AcceleratorConfig;

    fn elaborated() -> Elaboration {
        elaborate(&emit_verilog(&AcceleratorConfig::new(28, 19, 97)))
    }

    #[test]
    fn emitted_design_elaborates_cleanly() {
        let e = elaborated();
        assert!(e.is_ok(), "errors: {:?}", e.errors);
        assert!(e.modules.len() >= 8);
        // Hierarchy covers the template's units.
        let h = e.hierarchy.join("\n");
        for unit in [
            "u_jacobian",
            "u_dschur",
            "u_cholesky",
            "u_mschur",
            "u_fbsub",
        ] {
            assert!(h.contains(unit), "{unit} missing from hierarchy:\n{h}");
        }
    }

    #[test]
    fn parameters_parsed_with_defaults() {
        let e = elaborated();
        let top = &e.modules["archytas_top"];
        assert_eq!(top.parameters["ND"], 28);
        assert_eq!(top.parameters["NM"], 19);
        assert_eq!(top.parameters["S"], 97);
    }

    #[test]
    fn generate_widths_resolve_to_configuration() {
        let e = elaborated();
        assert_eq!(e.resolved_generate_width("cholesky_unit"), Some(97));
        assert_eq!(e.resolved_generate_width("dschur_unit"), Some(28));
        assert_eq!(e.resolved_generate_width("mschur_unit"), Some(19));
    }

    #[test]
    fn bad_connection_is_caught() {
        let mut design = emit_verilog(&AcceleratorConfig::new(4, 4, 4));
        design.files[0].contents = design.files[0]
            .contents
            .replace(".jac_out(jac_data)", ".nonexistent_port(jac_data)");
        let e = elaborate(&design);
        assert!(!e.is_ok());
        assert!(e.errors.iter().any(|m| m.contains("nonexistent_port")));
    }

    #[test]
    fn undeclared_signal_is_caught() {
        let mut design = emit_verilog(&AcceleratorConfig::new(4, 4, 4));
        design.files[0].contents = design.files[0]
            .contents
            .replace(".jac_in(jac_data)", ".jac_in(ghost_signal)");
        let e = elaborate(&design);
        assert!(e.errors.iter().any(|m| m.contains("ghost_signal")));
    }

    #[test]
    fn missing_module_is_caught() {
        let mut design = emit_verilog(&AcceleratorConfig::new(4, 4, 4));
        // Drop the MAC unit definition file entirely.
        design.files.retain(|f| f.name != "mac_unit.v");
        let e = elaborate(&design);
        assert!(e.errors.iter().any(|m| m.contains("mac_unit")));
    }

    #[test]
    fn corrupted_design_is_caught() {
        let mut design = emit_verilog(&AcceleratorConfig::new(28, 19, 97));
        design.files[0].contents = design.files[0]
            .contents
            .replace("dschur_unit #(.ND(ND)) u_dschur", "phantom_unit u_phantom");
        let e = elaborate(&design);
        assert!(!e.is_ok());
        assert!(e.errors.iter().any(|m| m.contains("phantom_unit")));
    }

    #[test]
    fn mismatched_parameter_is_caught() {
        let mut design = emit_verilog(&AcceleratorConfig::new(28, 19, 97));
        design.files[0].contents = design.files[0]
            .contents
            .replace("parameter ND = 28", "parameter ND = 4");
        let e = elaborate(&design);
        assert!(e.errors.iter().any(|m| m.contains("ND")), "{:?}", e.errors);
    }

    #[test]
    fn unterminated_module_is_caught() {
        let mut design = emit_verilog(&AcceleratorConfig::new(4, 4, 4));
        for file in &mut design.files {
            match file.name.as_str() {
                // Followed by another module in the same file.
                "buffers.v" => file.contents = file.contents.replacen("endmodule", "", 1),
                // The last module of its file.
                "mac_unit.v" => file.contents = file.contents.replace("endmodule", ""),
                _ => {}
            }
        }
        let e = elaborate(&design);
        for expected in [
            "buffers.v: module input_buffer has no endmodule",
            "mac_unit.v: module mac_unit has no endmodule",
        ] {
            assert!(e.errors.iter().any(|m| m == expected), "{:?}", e.errors);
        }
    }

    #[test]
    fn ports_have_directions() {
        let e = elaborated();
        let chol = &e.modules["cholesky_unit"];
        let dir_of = |name: &str| chol.ports.iter().find(|p| p.name == name).map(|p| p.dir);
        assert_eq!(dir_of("clk"), Some(PortDir::Input));
        assert_eq!(dir_of("l_out"), Some(PortDir::Output));
    }
}
