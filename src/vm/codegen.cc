/**
 * @file
 * VM code generation (§4.7): translates lowered graph functions into
 * instruction sequences. Every symbolic variable a function binds gets a
 * slot in its frame, written by MatchShape instructions over the input
 * tensors; every remaining symbolic expression is compiled into the
 * function's shape program, over those slots. Then every call is bound
 * to its target, and every kernel to the way a call binds its variables.
 */
#include "vm/exec.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "ir/utils.h"
#include "vm/vm.h"

namespace relax {
namespace vm {

using namespace ir;
using Var = ir::Var;
using VarNode = ir::VarNode;
using CallNode = ir::CallNode;

namespace {

class FunctionCodegen
{
  public:
    explicit FunctionCodegen(const Function& func) : func_(func) {}

    VMFunction
    run(const std::string& name)
    {
        out_.name = name;
        out_.numParams = (int)func_->params.size();
        for (const auto& param : func_->params) {
            regOf(param.get());
        }
        emitInputShapeMatches();
        const auto* seq = static_cast<const SeqExprNode*>(func_->body.get());
        for (const auto& block : seq->blocks) {
            for (const auto& binding : block->bindings) {
                emitBinding(binding);
            }
        }
        Instr ret;
        ret.op = Instr::Op::kRet;
        ret.args.push_back(regOfExpr(seq->body));
        out_.instrs.push_back(std::move(ret));
        out_.numRegs = nextReg_;
        lowerShapes();
        out_.instrs.shrink_to_fit();
        return std::move(out_);
    }

  private:
    /** The frame slot of a symbolic variable the function binds. */
    int32_t
    slotOf(const PrimExpr& dim)
    {
        auto v = std::static_pointer_cast<const ::relax::VarNode>(dim);
        auto [it, inserted] =
            symbolSlots_.emplace(v.get(), (int32_t)symbols_.size());
        if (inserted) symbols_.push_back(std::move(v));
        return it->second;
    }

    /**
     * Compiles every expression of the instructions into the shape
     * program, in execution order: one that reads a variable no earlier
     * instruction has bound fails where it runs, as evaluating it would.
     */
    void
    lowerShapes()
    {
        out_.shapes = ShapeProgram(symbols_);
        ShapeProgram::Compiler compiler(out_.shapes);
        std::vector<char> bound(symbols_.size(), 0);
        auto compile = [&](ShapeExpr& expr) {
            expr.id = compiler.compile(expr.source, &bound);
        };
        for (Instr& instr : out_.instrs) {
            for (const auto& [dim, slot] : instr.binds) bound[slot] = 1;
            for (auto& [dim, check] : instr.checks) compile(check);
            if (instr.sizeExpr.source) compile(instr.sizeExpr);
            for (ShapeExpr& dim : instr.shape) compile(dim);
            for (ShapeExpr& expr : instr.symExprs) compile(expr);
            for (auto& shape : instr.argShapes) {
                for (ShapeExpr& dim : shape) compile(dim);
            }
            if (instr.op != Instr::Op::kGraphBegin) continue;
            for (size_t slot = 0; slot < bound.size(); ++slot) {
                if (bound[slot]) instr.symbols.push_back((int32_t)slot);
            }
            std::sort(instr.symbols.begin(), instr.symbols.end(),
                      [&](int32_t a, int32_t b) {
                          return symbols_[a]->name < symbols_[b]->name;
                      });
        }
    }

    RegIndex
    regOf(const VarNode* v)
    {
        auto [it, inserted] = regs_.emplace(v, nextReg_);
        if (inserted) ++nextReg_;
        return it->second;
    }

    RegIndex
    regOfExpr(const Expr& expr)
    {
        if (expr->kind() == RxKind::kConstant) {
            // Materialize the constant once at first use.
            const auto* node =
                static_cast<const ConstantNode*>(expr.get());
            auto [it, inserted] = constRegs_.emplace(node, nextReg_);
            if (inserted) {
                ++nextReg_;
                Instr instr;
                instr.op = Instr::Op::kLoadConst;
                instr.dst = it->second;
                instr.constant = node->data;
                out_.instrs.push_back(std::move(instr));
            }
            return it->second;
        }
        RELAX_ICHECK(expr->kind() == RxKind::kVar)
            << "codegen expects variable operands, got " << toString(expr);
        return regOf(static_cast<const VarNode*>(expr.get()));
    }

    /** Populates the symbol table from input tensor shapes (MatchShape). */
    void
    emitInputShapeMatches()
    {
        std::unordered_set<const ::relax::VarNode*> bound;
        for (const auto& param : func_->params) {
            const auto* tensor = asTensor(param->structInfo());
            if (!tensor || !tensor->shape) continue;
            Instr instr;
            instr.op = Instr::Op::kMatchShape;
            instr.args.push_back(regOf(param.get()));
            for (size_t d = 0; d < tensor->shape->size(); ++d) {
                const PrimExpr& dim = (*tensor->shape)[d];
                if (dim->kind() == ExprKind::kVar) {
                    const auto* v =
                        static_cast<const ::relax::VarNode*>(dim.get());
                    if (bound.insert(v).second) {
                        instr.binds.emplace_back((int)d, slotOf(dim));
                        continue;
                    }
                }
                instr.checks.emplace_back((int)d, dim);
            }
            if (!instr.binds.empty() || !instr.checks.empty()) {
                out_.instrs.push_back(std::move(instr));
            }
        }
    }

    void
    emitBinding(const Binding& binding)
    {
        const Expr& value = binding.value;
        if (binding.isMatchCast) {
            emitMatchCast(binding);
            return;
        }
        if (isOpCall(value, "relax.memory.alloc_storage")) {
            const auto* call = static_cast<const CallNode*>(value.get());
            Instr instr;
            instr.op = Instr::Op::kAllocStorage;
            instr.dst = regOf(binding.var.get());
            instr.sizeExpr =
                static_cast<const PrimValueNode*>(call->args[0].get())
                    ->value;
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (isOpCall(value, "relax.memory.alloc_tensor") ||
            isOpCall(value, "relax.builtin.alloc_tensor")) {
            const auto* call = static_cast<const CallNode*>(value.get());
            const auto* tensor = asTensor(call->sinfoArgs[0]);
            RELAX_ICHECK(tensor && tensor->shape)
                << "alloc_tensor without symbolic shape";
            Instr instr;
            instr.op = Instr::Op::kAllocTensor;
            instr.dst = regOf(binding.var.get());
            if (!call->args.empty()) {
                instr.args.push_back(regOfExpr(call->args[0])); // storage
            }
            instr.shape.assign(tensor->shape->begin(), tensor->shape->end());
            instr.dtype = tensor->dtype;
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (isOpCall(value, "relax.vm.kernel_call")) {
            const auto* call = static_cast<const CallNode*>(value.get());
            Instr instr;
            instr.op = Instr::Op::kKernelCall;
            instr.attrs = std::shared_ptr<const Attrs>(value, &call->attrs);
            instr.numInputs =
                (int)std::get<int64_t>(call->attrs.at("num_inputs"));
            instr.numOutputs =
                (int)std::get<int64_t>(call->attrs.at("num_outputs"));
            int64_t num_sym =
                std::get<int64_t>(call->attrs.at("num_sym_args"));
            instr.isLibrary = std::get<std::string>(
                                  call->attrs.at("callee_kind")) == "library";
            if (instr.isLibrary) {
                instr.callee = static_cast<const ExternFuncNode*>(
                                   call->args[0].get())
                                   ->name;
            } else {
                instr.callee = static_cast<const GlobalVarNode*>(
                                   call->args[0].get())
                                   ->name;
            }
            for (int i = 0; i < instr.numInputs + instr.numOutputs; ++i) {
                instr.args.push_back(regOfExpr(call->args[1 + i]));
                if (instr.isLibrary) {
                    // Carry each argument's symbolic shape so the VM can
                    // price library kernels at the padded binding inside
                    // bucketed graph regions (DESIGN.md §4).
                    const auto* tensor =
                        asTensor(call->args[1 + i]->structInfo());
                    instr.argShapes.emplace_back();
                    if (tensor && tensor->shape) {
                        instr.argShapes.back().assign(tensor->shape->begin(),
                                                      tensor->shape->end());
                    }
                }
            }
            for (int64_t i = 0; i < num_sym; ++i) {
                const Expr& arg =
                    call->args[1 + instr.numInputs + instr.numOutputs + i];
                instr.symExprs.push_back(
                    static_cast<const PrimValueNode*>(arg.get())->value);
            }
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (isOpCall(value, "relax.call_packed")) {
            const auto* call = static_cast<const CallNode*>(value.get());
            Instr instr;
            instr.op = Instr::Op::kPackedCall;
            instr.dst = regOf(binding.var.get());
            instr.callee = static_cast<const ExternFuncNode*>(
                               call->args[0].get())
                               ->name;
            instr.attrs = std::shared_ptr<const Attrs>(value, &call->attrs);
            for (size_t i = 1; i < call->args.size(); ++i) {
                instr.args.push_back(regOfExpr(call->args[i]));
            }
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (isOpCall(value, "relax.vm.graph_begin") ||
            isOpCall(value, "relax.vm.graph_end")) {
            const auto* call = static_cast<const CallNode*>(value.get());
            Instr instr;
            instr.op = isOpCall(value, "relax.vm.graph_begin")
                           ? Instr::Op::kGraphBegin
                           : Instr::Op::kGraphEnd;
            instr.graphId = std::get<int64_t>(call->attrs.at("graph_id"));
            if (auto it = call->attrs.find("bucket_block");
                it != call->attrs.end()) {
                instr.bucketBlock = std::get<int64_t>(it->second);
            }
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (value->kind() == RxKind::kVar ||
            value->kind() == RxKind::kConstant) {
            Instr instr;
            instr.op = Instr::Op::kRebind;
            instr.dst = regOf(binding.var.get());
            instr.args.push_back(regOfExpr(value));
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (value->kind() == RxKind::kTuple) {
            const auto* tuple = static_cast<const TupleNode*>(value.get());
            Instr instr;
            instr.op = Instr::Op::kMakeTuple;
            instr.dst = regOf(binding.var.get());
            for (const auto& field : tuple->fields) {
                instr.args.push_back(regOfExpr(field));
            }
            out_.instrs.push_back(std::move(instr));
            return;
        }
        if (value->kind() == RxKind::kTupleGetItem) {
            const auto* node =
                static_cast<const TupleGetItemNode*>(value.get());
            Instr instr;
            instr.op = Instr::Op::kGetItem;
            instr.dst = regOf(binding.var.get());
            instr.args.push_back(regOfExpr(node->tuple));
            instr.index = node->index;
            out_.instrs.push_back(std::move(instr));
            return;
        }
        RELAX_THROW(IRError)
            << "codegen: unlowered binding " << binding.var->name << " = "
            << toString(value)
            << " (run the Fig. 13 pipeline before building)";
    }

    void
    emitMatchCast(const Binding& binding)
    {
        // dst aliases src; bare vars in the target annotation bind from the
        // runtime shape, composite dims become runtime checks (§3.2).
        Instr rebind;
        rebind.op = Instr::Op::kRebind;
        rebind.dst = regOf(binding.var.get());
        rebind.args.push_back(regOfExpr(binding.value));
        out_.instrs.push_back(std::move(rebind));

        const auto* tensor = asTensor(binding.castInfo);
        if (!tensor || !tensor->shape) return;
        Instr match;
        match.op = Instr::Op::kMatchShape;
        match.args.push_back(regOf(binding.var.get()));
        for (size_t d = 0; d < tensor->shape->size(); ++d) {
            const PrimExpr& dim = (*tensor->shape)[d];
            if (dim->kind() == ExprKind::kVar) {
                match.binds.emplace_back((int)d, slotOf(dim));
            } else {
                match.checks.emplace_back((int)d, dim);
            }
        }
        out_.instrs.push_back(std::move(match));
    }

    Function func_;
    VMFunction out_;
    std::unordered_map<const VarNode*, RegIndex> regs_;
    std::unordered_map<const ConstantNode*, RegIndex> constRegs_;
    int nextReg_ = 0;
    std::vector<::relax::Var> symbols_;
    std::unordered_map<const ::relax::VarNode*, int32_t> symbolSlots_;
};

/** Binds a call to its target; `generated` maps kernel names to entries. */
void
bindTarget(Executable& exec,
           std::unordered_map<std::string, int32_t>& generated, Instr& instr)
{
    bool dps = instr.op == Instr::Op::kKernelCall;
    if (dps && !instr.isLibrary) {
        auto [it, inserted] =
            generated.emplace(instr.callee, (int32_t)exec.kernels.size());
        if (inserted) {
            tir::PrimFunc func = exec.module->getTIRFunc(instr.callee);
            RELAX_ICHECK(func) << "missing kernel " << instr.callee;
            exec.kernels.emplace_back();
            exec.kernels.back().setFunc(std::move(func));
        }
        instr.kernel = it->second;
        return;
    }
    bool reduce = instr.callee == "ccl.all_reduce";
    if (dps && (reduce || instr.callee == "ccl.all_gather")) {
        instr.collective = reduce ? Instr::Collective::kAllReduce
                                  : Instr::Collective::kAllGather;
        return;
    }
    instr.library = findLibrary(instr.callee);
    if (!instr.library || (dps ? !instr.library->program
                               : !instr.library->compute)) {
        RELAX_THROW(IRError) << (dps ? "library function" : "builtin")
                             << " not linked: " << instr.callee;
    }
    if (dps) {
        instr.kernel = (int32_t)exec.kernels.size();
        exec.kernels.emplace_back();
    }
}

} // namespace

void
KernelEntry::setFunc(tir::PrimFunc kernel)
{
    func = std::move(kernel);
    shapes = ShapeProgram(tir::entryVars(func));
    binds.clear();
    const std::vector<::relax::Var>& vars = shapes.slots();
    auto slotOf = [&](const PrimExpr& v) {
        return (int32_t)(std::find(vars.begin(), vars.end(), v) -
                         vars.begin());
    };
    using Kind = BindStep::Kind;
    std::vector<char> bound(vars.size(), 0);
    for (size_t k = 0; k < func->symParams.size(); ++k) {
        int32_t slot = slotOf(func->symParams[k]);
        binds.push_back({Kind::kSymArg, (int32_t)k, 0, slot});
        bound[slot] = 1;
    }
    // Two rounds, as in bindShapes: bare variables bind (or must agree)
    // first, then every other dim is checked.
    for (size_t i = 0; i < func->params.size(); ++i) {
        const std::vector<PrimExpr>& shape = func->params[i]->shape;
        binds.push_back({Kind::kRank, (int32_t)i, 0, (int32_t)shape.size()});
        for (size_t d = 0; d < shape.size(); ++d) {
            if (shape[d]->kind() != ExprKind::kVar) continue;
            int32_t slot = slotOf(shape[d]);
            binds.push_back({bound[slot] ? Kind::kSame : Kind::kBind,
                             (int32_t)i, (int32_t)d, slot});
            bound[slot] = 1;
        }
    }
    ShapeProgram::Compiler compiler(shapes);
    for (size_t i = 0; i < func->params.size(); ++i) {
        const std::vector<PrimExpr>& shape = func->params[i]->shape;
        for (size_t d = 0; d < shape.size(); ++d) {
            if (shape[d]->kind() == ExprKind::kVar) continue;
            binds.push_back({Kind::kCheck, (int32_t)i, (int32_t)d,
                             compiler.compile(shape[d])});
        }
    }
}

ExecutablePtr
buildExecutable(const IRModulePtr& module)
{
    auto exec = std::make_shared<Executable>();
    exec->module = module;
    for (const auto& [name, func] : module->functions()) {
        exec->functions[name] = FunctionCodegen(func).run(name);
    }
    std::unordered_map<std::string, int32_t> generated;
    for (auto& [name, func] : exec->functions) {
        const std::vector<::relax::Var>& symbols = func.shapes.slots();
        for (Instr& instr : func.instrs) {
            if (instr.op != Instr::Op::kKernelCall &&
                instr.op != Instr::Op::kPackedCall) {
                continue;
            }
            bindTarget(*exec, generated, instr);
            if (instr.op != Instr::Op::kKernelCall || instr.isLibrary ||
                instr.kernel < 0) {
                continue;
            }
            for (const auto& v : exec->kernels[instr.kernel].shapes.slots()) {
                auto it = std::find(symbols.begin(), symbols.end(), v);
                instr.symbols.push_back(
                    it == symbols.end() ? -1
                                        : (int32_t)(it - symbols.begin()));
            }
        }
    }
    return exec;
}

std::string
toString(const VMFunction& func)
{
    std::ostringstream os;
    os << "vm_function " << func.name << " (params=" << func.numParams
       << ", regs=" << func.numRegs << ")\n";
    for (const auto& instr : func.instrs) {
        switch (instr.op) {
          case Instr::Op::kMatchShape:
            os << "  match_shape r" << instr.args[0];
            for (const auto& [dim, slot] : instr.binds) {
                os << " [" << dim << "]->" << func.shapes.slots()[slot]->name;
            }
            for (const auto& [dim, expr] : instr.checks) {
                os << " check[" << dim
                   << "]==" << relax::toString(expr.source);
            }
            break;
          case Instr::Op::kAllocStorage:
            os << "  r" << instr.dst << " = alloc_storage("
               << relax::toString(instr.sizeExpr.source) << ")";
            break;
          case Instr::Op::kAllocTensor: {
            std::vector<PrimExpr> shape;
            for (const ShapeExpr& dim : instr.shape) {
                shape.push_back(dim.source);
            }
            os << "  r" << instr.dst << " = alloc_tensor("
               << relax::toString(shape) << ", "
               << instr.dtype.toString();
            if (!instr.args.empty()) os << ", storage=r" << instr.args[0];
            os << ")";
            break;
          }
          case Instr::Op::kKernelCall:
            os << "  kernel_call " << instr.callee
               << (instr.isLibrary ? " [lib]" : "") << " regs(";
            for (size_t i = 0; i < instr.args.size(); ++i) {
                if (i) os << ", ";
                os << "r" << instr.args[i];
            }
            os << ")";
            break;
          case Instr::Op::kPackedCall:
            os << "  r" << instr.dst << " = packed " << instr.callee;
            break;
          case Instr::Op::kGraphBegin:
            os << "  graph_begin " << instr.graphId;
            if (instr.bucketBlock > 1) {
                os << " bucket=" << instr.bucketBlock;
            }
            break;
          case Instr::Op::kGraphEnd:
            os << "  graph_end " << instr.graphId;
            break;
          case Instr::Op::kLoadConst:
            os << "  r" << instr.dst << " = const";
            break;
          case Instr::Op::kRebind:
            os << "  r" << instr.dst << " = r" << instr.args[0];
            break;
          case Instr::Op::kMakeTuple:
            os << "  r" << instr.dst << " = tuple(...)";
            break;
          case Instr::Op::kGetItem:
            os << "  r" << instr.dst << " = r" << instr.args[0] << "["
               << instr.index << "]";
            break;
          case Instr::Op::kRet:
            os << "  ret r" << instr.args[0];
            break;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace vm
} // namespace relax
