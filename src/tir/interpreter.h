/**
 * @file
 * Reference executor for tensor programs. Stands in for the paper's GPU
 * code generation layer: every transformation in the compiler can be
 * validated against it, which is exactly the role ground-truth codegen
 * plays in the TVM artifact.
 *
 * A PrimFunc is lowered once into a slot program: every variable becomes
 * a scalar slot, every buffer a buffer slot (data pointer plus shape),
 * every intrinsic an opcode, and statements and expressions one flat
 * instruction array with jumps. Executing it does no hash lookup and no
 * per-access allocation. The semantics are the reference semantics:
 * every value is a double (integer casts truncate, integer floordiv and
 * floormod are Euclidean), and every buffer index is bounds-checked.
 */
#ifndef RELAX_TIR_INTERPRETER_H_
#define RELAX_TIR_INTERPRETER_H_

#include <memory>
#include <vector>

#include "arith/substitute.h"
#include "tir/ndarray.h"
#include "tir/stmt.h"

namespace relax {
namespace tir {

/**
 * A tensor program lowered for execution (see the file comment).
 * Immutable, so one program serves any number of calls; it holds no
 * reference to its PrimFunc.
 */
class SlotProgram;

/**
 * The variables bindShapes binds, in the order execute() takes their
 * values: func->symParams, then every buffer dim that is a bare variable,
 * each at its first occurrence.
 */
std::vector<Var> entryVars(const PrimFunc& func);

/** Lowers `func` into a slot program. */
std::shared_ptr<const SlotProgram> lower(const PrimFunc& func);

/**
 * Executes a lowered program in destination-passing style.
 *
 * @param program The result of lower(func).
 * @param args One NDArray per buffer parameter of func, outputs included.
 * @param entry The value of each of entryVars(func), in order.
 */
void execute(const SlotProgram& program, const std::vector<NDArray>& args,
             const std::vector<int64_t>& entry);

/**
 * Executes a tensor program in destination-passing style: binds shapes,
 * lowers, then executes.
 *
 * @param func The program to run.
 * @param args One NDArray per buffer parameter, outputs included (DPS).
 * @param sym_args Values for func->symParams, in order.
 *
 * Symbolic variables appearing in buffer shapes are bound by matching the
 * declared shapes against the concrete argument shapes (the runtime
 * counterpart of the paper's shape checks at function boundaries); a
 * mismatch throws ShapeError.
 */
void run(const PrimFunc& func, const std::vector<NDArray>& args,
         const std::vector<int64_t>& sym_args = {});

/**
 * Binds symbolic shape variables by matching declared against concrete
 * shapes. Exposed for the VM, which performs the same matching when
 * invoking compiled kernels. Throws ShapeError on inconsistency.
 */
VarBinding bindShapes(const PrimFunc& func,
                      const std::vector<NDArray>& args,
                      const std::vector<int64_t>& sym_args);

} // namespace tir
} // namespace relax

#endif // RELAX_TIR_INTERPRETER_H_
