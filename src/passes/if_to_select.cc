#include "passes/passes.hh"

namespace revet
{
namespace passes
{

using namespace lang;

namespace
{

/**
 * Section V-B(c): inline if statements that contain no inner loops,
 * replacing them with conditional moves (selects) and predicating memory
 * operations. This is more aggressive than rewriting only empty ifs, but
 * still refuses bodies whose speculation would be unsafe (div/rem) or
 * unrepresentable (control constructs, allocation, atomics with used
 * results, thread termination).
 */
class IfToSelect
{
  public:
    explicit IfToSelect(Function &fn) : fn_(fn) {}

    void
    run()
    {
        rewriteList(fn_.bodyStmt->body);
    }

    int converted = 0;

  private:
    void
    rewriteList(std::vector<StmtPtr> &body)
    {
        std::vector<StmtPtr> out;
        for (auto &stmt : body) {
            // Post-order: convert inner ifs first.
            rewriteList(stmt->body);
            rewriteList(stmt->other);
            if (stmt->kind == StmtKind::ifStmt && convertible(*stmt)) {
                convert(stmt, out);
                ++converted;
            } else {
                out.push_back(std::move(stmt));
            }
        }
        body = std::move(out);
    }

    bool
    convertible(const Stmt &s)
    {
        for (const auto &list : {&s.body, &s.other}) {
            for (const auto &child : *list) {
                switch (child->kind) {
                  case StmtKind::varDecl:
                    if (child->value &&
                        child->value->kind == ExprKind::forkExpr)
                        return false;
                    break;
                  case StmtKind::assign:
                  case StmtKind::storeIndexed:
                    break;
                  default:
                    return false; // loops, foreach, exit, return, ...
                }
                // Speculation safety: both branches will execute, so
                // faulting or stateful expressions are off limits.
                if (anyExpr(*child, [](const Expr &e) {
                        return (e.kind == ExprKind::binary &&
                                (e.bop == BinOp::div ||
                                 e.bop == BinOp::rem)) ||
                            e.kind == ExprKind::atomicRmw ||
                            e.kind == ExprKind::forkExpr;
                    })) {
                    return false;
                }
            }
        }
        return true;
    }

    ExprPtr
    guardAnd(const ExprPtr &existing, ExprPtr cond)
    {
        if (!existing)
            return cond;
        return makeBinary(BinOp::logicalAnd, existing->clone(),
                          std::move(cond), Scalar::boolTy);
    }

    void
    convert(StmtPtr &s, std::vector<StmtPtr> &out)
    {
        // bool c = <cond>;
        SlotInfo info;
        info.name = "__sel" + std::to_string(counter_++);
        info.type = Scalar::boolTy;
        int c = fn_.addSlot(std::move(info));
        auto c_decl = std::make_unique<Stmt>();
        c_decl->kind = StmtKind::varDecl;
        c_decl->slot = c;
        c_decl->declType = Scalar::boolTy;
        c_decl->value = std::move(s->value);
        out.push_back(std::move(c_decl));

        auto emitBranch = [&](std::vector<StmtPtr> &branch, bool sense) {
            auto condRef = [&]() {
                ExprPtr r = makeVarRef(c, Scalar::boolTy);
                if (!sense)
                    r = makeUnary(UnOp::logNot, std::move(r),
                                  Scalar::boolTy);
                return r;
            };
            for (auto &child : branch) {
                switch (child->kind) {
                  case StmtKind::varDecl:
                    // Branch-local value: safe to compute always.
                    out.push_back(std::move(child));
                    break;
                  case StmtKind::assign: {
                    // x = c ? e : x   (or swapped for the else branch)
                    Scalar t = fn_.slots[child->slot].type;
                    auto sel = std::make_unique<Expr>();
                    sel->kind = ExprKind::cond;
                    sel->type = t;
                    sel->a = makeVarRef(c, Scalar::boolTy);
                    if (sense) {
                        sel->b = std::move(child->value);
                        sel->c = makeVarRef(child->slot, t);
                    } else {
                        sel->b = makeVarRef(child->slot, t);
                        sel->c = std::move(child->value);
                    }
                    child->value = std::move(sel);
                    out.push_back(std::move(child));
                    break;
                  }
                  case StmtKind::storeIndexed:
                    child->guard = guardAnd(child->guard, condRef());
                    out.push_back(std::move(child));
                    break;
                  default:
                    break; // unreachable: convertible() filtered
                }
            }
        };
        emitBranch(s->body, true);
        emitBranch(s->other, false);
        s.reset();
    }

    Function &fn_;
    int counter_ = 0;
};

} // namespace

void
ifToSelect(Program &program)
{
    for (auto &fn : program.functions) {
        IfToSelect pass(*fn);
        pass.run();
    }
}

void
runPipeline(Program &program, const PassOptions &opts)
{
    lowerAdapters(program);
    if (opts.eliminateHierarchy)
        eliminateHierarchy(program);
    if (opts.ifToSelect)
        ifToSelect(program);
}

} // namespace passes
} // namespace revet
