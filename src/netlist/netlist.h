// Flat gate-level netlist with named ports and RT-component tagging.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/gate.h"

namespace sbst::nl {

/// Error thrown on netlist construction / integrity violations.
class NetlistError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A named bundle of nets, LSB first (bit 0 at index 0).
struct Port {
  std::string name;
  std::vector<GateId> bits;

  int width() const { return static_cast<int>(bits.size()); }
};

/// A flat gate-level design.
///
/// Gates are append-only; GateIds are stable. Primary inputs are INPUT
/// gates registered via add_input(); primary outputs are arbitrary nets
/// registered via add_output(). RT components are declared up front and
/// every gate added while a component is "open" is tagged with it.
class Netlist {
 public:
  Netlist();

  // --- components -------------------------------------------------------
  /// Declares a new RT-level component and returns its id.
  ComponentId declare_component(std::string name);
  /// Sets the component tag applied to subsequently added gates.
  void set_current_component(ComponentId c);
  int num_components() const { return static_cast<int>(component_names_.size()); }
  const std::string& component_name(ComponentId c) const;

  // --- gate construction -------------------------------------------------
  GateId add_gate(GateKind kind, GateId a = kNoGate, GateId b = kNoGate,
                  GateId c = kNoGate);
  GateId add_dff(GateId d, bool reset_val);
  GateId const0() const { return const0_; }
  GateId const1() const { return const1_; }

  /// Rewires one input pin of an existing gate (used to close feedback
  /// paths through DFFs that are created before their D-logic exists).
  void set_gate_input(GateId g, int pin, GateId driver);

  // --- ports -------------------------------------------------------------
  /// Creates `width` INPUT gates and registers them as a named input
  /// port. Returns a copy: references into the port table would be
  /// invalidated by the next port registration.
  Port add_input(std::string name, int width);
  /// Registers existing INPUT gates as a named input port (used by
  /// netlist-to-netlist transforms such as remap_to_nand).
  Port register_input_port(std::string name, std::vector<GateId> bits);
  /// Registers existing nets as a named output port.
  Port add_output(std::string name, std::vector<GateId> bits);

  /// Overrides a DFF's reset value (netlist transform support).
  void set_dff_reset(GateId g, bool reset_val);

  /// Replaces a gate's kind in place, keeping its pins (netlist transform
  /// and fault-injection support, e.g. verify::inject_alu_carry_bug). The
  /// new kind must have the same fan-in arity as the old one.
  void set_gate_kind(GateId g, GateKind kind);

  const std::vector<Port>& inputs() const { return inputs_; }
  const std::vector<Port>& outputs() const { return outputs_; }
  const Port& input(std::string_view name) const;
  const Port& output(std::string_view name) const;
  bool has_input(std::string_view name) const;
  bool has_output(std::string_view name) const;

  // --- access ------------------------------------------------------------
  std::size_t size() const { return gates_.size(); }
  const Gate& gate(GateId g) const { return gates_[g]; }
  std::span<const Gate> gates() const { return gates_; }

  std::size_t num_dffs() const { return num_dffs_; }
  std::size_t num_primary_inputs() const { return num_inputs_; }

  /// Integrity check: pin connectivity matches gate arity, all referenced
  /// ids exist, every DFF has a D driver, output ports reference valid
  /// nets. Throws NetlistError on violation.
  void check() const;

 private:
  std::vector<Gate> gates_;
  std::vector<Port> inputs_;
  std::vector<Port> outputs_;
  std::vector<std::string> component_names_;
  ComponentId current_component_ = kNoComponent;
  GateId const0_ = kNoGate;
  GateId const1_ = kNoGate;
  std::size_t num_dffs_ = 0;
  std::size_t num_inputs_ = 0;
};

}  // namespace sbst::nl
