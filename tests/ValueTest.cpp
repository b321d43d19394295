//===- ValueTest.cpp - Value and expression-operation tests ---------------------===//

#include "interp/ExprEvaluator.h"
#include "types/TypeContext.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

using namespace liberty;
using namespace liberty::interp;
using lss::BinaryOp;
using lss::UnaryOp;

namespace {

struct OpFixture {
  SourceMgr SM;
  DiagnosticEngine Diags{SM};

  Value bin(BinaryOp Op, Value A, Value B) {
    return applyBinary(Op, A, B, SourceLoc(), Diags);
  }
};

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value().isUnset());
  EXPECT_EQ(Value::makeInt(5).getInt(), 5);
  EXPECT_EQ(Value::makeBool(true).getBool(), true);
  EXPECT_DOUBLE_EQ(Value::makeFloat(2.5).getFloat(), 2.5);
  EXPECT_EQ(Value::makeString("hi").getString(), "hi");
  EXPECT_TRUE(Value::makeInt(1).isData());
  EXPECT_FALSE(Value().isData());
}

TEST(Value, NumericWidening) {
  EXPECT_DOUBLE_EQ(Value::makeInt(3).getNumeric(), 3.0);
  EXPECT_DOUBLE_EQ(Value::makeFloat(3.5).getNumeric(), 3.5);
}

TEST(Value, StructFields) {
  Value S = Value::makeStruct(
      {{"pc", Value::makeInt(4)}, {"ok", Value::makeBool(true)}});
  ASSERT_NE(S.getField("pc"), nullptr);
  EXPECT_EQ(S.getField("pc")->getInt(), 4);
  EXPECT_EQ(S.getField("missing"), nullptr);
  *S.getFieldMutable("pc") = Value::makeInt(8);
  EXPECT_EQ(S.getField("pc")->getInt(), 8);
}

TEST(Value, EqualsIsStructural) {
  Value A = Value::makeArray({Value::makeInt(1), Value::makeInt(2)});
  Value B = Value::makeArray({Value::makeInt(1), Value::makeInt(2)});
  Value C = Value::makeArray({Value::makeInt(1)});
  EXPECT_TRUE(A.equals(B));
  EXPECT_FALSE(A.equals(C));
  EXPECT_FALSE(A.equals(Value::makeInt(1)));
  EXPECT_TRUE(Value().equals(Value()));
}

TEST(Value, ConformsTo) {
  types::TypeContext TC;
  EXPECT_TRUE(Value::makeInt(1).conformsTo(TC.getInt()));
  EXPECT_FALSE(Value::makeInt(1).conformsTo(TC.getBool()));
  // Integer literals accepted for float parameters (Figure 5 precedent).
  EXPECT_TRUE(Value::makeInt(1).conformsTo(TC.getFloat()));
  EXPECT_FALSE(Value::makeFloat(1).conformsTo(TC.getInt()));
  const types::Type *Arr = TC.getArray(TC.getInt(), 2);
  EXPECT_TRUE(Value::makeArray({Value::makeInt(1), Value::makeInt(2)})
                  .conformsTo(Arr));
  EXPECT_FALSE(Value::makeArray({Value::makeInt(1)}).conformsTo(Arr));
  const types::Type *D = TC.getDisjunct({TC.getInt(), TC.getString()});
  EXPECT_TRUE(Value::makeString("x").conformsTo(D));
  EXPECT_FALSE(Value::makeBool(true).conformsTo(D));
}

TEST(Value, DefaultFor) {
  types::TypeContext TC;
  EXPECT_EQ(Value::defaultFor(TC.getInt()).getInt(), 0);
  EXPECT_EQ(Value::defaultFor(TC.getString()).getString(), "");
  Value Arr = Value::defaultFor(TC.getArray(TC.getBool(), 3));
  ASSERT_TRUE(Arr.isArray());
  EXPECT_EQ(Arr.getElems().size(), 3u);
  EXPECT_FALSE(Arr.getElems()[0].getBool());
}

TEST(Value, StrRendering) {
  EXPECT_EQ(Value::makeInt(-3).str(), "-3");
  EXPECT_EQ(Value::makeString("x").str(), "\"x\"");
  EXPECT_EQ(Value::makeArray({Value::makeInt(1), Value::makeInt(2)}).str(),
            "[1, 2]");
  EXPECT_EQ(Value::makeStruct({{"a", Value::makeBool(true)}}).str(),
            "{a: true}");
}

//===----------------------------------------------------------------------===//
// Layout and copy-on-write sharing
//===----------------------------------------------------------------------===//

// A kind tag plus one inline word; String/Array/Struct/Port payloads are
// shared, so a copy never copies contents.
static_assert(sizeof(Value) <= 16, "Value must stay a small tagged word");

TEST(ValueCow, ArrayCopyUnsharesOnWrite) {
  Value A = Value::makeArray({Value::makeInt(1), Value::makeInt(2)});
  Value B = A;
  uint64_t Before = Value::getCowCopiedEntries();
  B.getElemsMutable()[0] = Value::makeInt(9);
  EXPECT_EQ(Value::getCowCopiedEntries() - Before, 2u) << "one unshare";
  EXPECT_EQ(A.getElems()[0].getInt(), 1) << "original unchanged";
  EXPECT_EQ(B.getElems()[0].getInt(), 9);
  // B now owns its payload: further writes copy nothing.
  Before = Value::getCowCopiedEntries();
  B.getElemsMutable().push_back(Value::makeInt(3));
  EXPECT_EQ(Value::getCowCopiedEntries(), Before);
  EXPECT_EQ(A.getElems().size(), 2u);
  EXPECT_EQ(B.getElems().size(), 3u);
}

TEST(ValueCow, NestedSharingThroughOuterCopy) {
  // array(n, init) shares one inner payload among all elements.
  Value Inner = Value::makeArray({Value::makeInt(0), Value::makeInt(0)});
  Value Outer = Value::makeArray({Inner, Inner});
  Value Copy = Outer;
  Copy.getElemsMutable()[1].getElemsMutable()[0] = Value::makeInt(5);
  EXPECT_EQ(Copy.getElems()[1].getElems()[0].getInt(), 5);
  EXPECT_EQ(Copy.getElems()[0].getElems()[0].getInt(), 0);
  EXPECT_EQ(Outer.getElems()[1].getElems()[0].getInt(), 0);
  EXPECT_EQ(Inner.getElems()[0].getInt(), 0);
}

TEST(ValueCow, StructFieldCopyUnsharesOnWrite) {
  Value S = Value::makeStruct(
      {{"pc", Value::makeInt(4)}, {"ok", Value::makeBool(true)}});
  Value T = S;
  *T.getFieldMutable("pc") = Value::makeInt(8);
  EXPECT_EQ(S.getField("pc")->getInt(), 4) << "original unchanged";
  EXPECT_EQ(T.getField("pc")->getInt(), 8);
  Value U = S;
  U.getFieldsMutable().emplace_back("extra", Value::makeInt(1));
  EXPECT_EQ(S.getFields().size(), 2u);
  EXPECT_EQ(U.getFields().size(), 3u);
  EXPECT_EQ(U.getFieldMutable("missing"), nullptr);
}

TEST(ValueCow, PortCopyUnsharesOnWrite) {
  PortHandle H;
  H.Port = "out";
  Value P = Value::makePort(H);
  Value Q = P;
  Q.getPortMutable().Index = 3;
  Q.getPortMutable().Port = "in";
  EXPECT_FALSE(P.getPort().hasIndex()) << "original unchanged";
  EXPECT_EQ(P.getPort().Port, "out");
  EXPECT_EQ(Q.getPort().Index, 3);
  EXPECT_EQ(Q.str(), "<port in[3]>");
  EXPECT_FALSE(P.equals(Q));
}

TEST(ValueCow, EqualsAcrossSharedAndUnsharedPayloads) {
  Value A = Value::makeArray(
      {Value::makeString("x"),
       Value::makeStruct({{"f", Value::makeFloat(1.5)}})});
  Value Shared = A;
  Value Separate = Value::makeArray(
      {Value::makeString("x"),
       Value::makeStruct({{"f", Value::makeFloat(1.5)}})});
  EXPECT_TRUE(A.equals(Shared));
  EXPECT_TRUE(A.equals(Separate));
  // Unsharing with an identical write keeps the values equal.
  Shared.getElemsMutable()[0] = Value::makeString("x");
  EXPECT_TRUE(A.equals(Shared));
  *Shared.getElemsMutable()[1].getFieldMutable("f") = Value::makeFloat(2.5);
  EXPECT_FALSE(A.equals(Shared));
  EXPECT_TRUE(A.equals(Separate));
  // Equality stays element-wise even on one shared payload: NaN != NaN.
  Value NaN = Value::makeArray({Value::makeFloat(std::nan(""))});
  Value NaNCopy = NaN;
  EXPECT_FALSE(NaN.equals(NaNCopy));
}

TEST(ValueCow, SetIntResetsNonIntValues) {
  Value S = Value::makeString("text");
  Value Keep = S;
  S.setInt(7);
  ASSERT_TRUE(S.isInt());
  EXPECT_EQ(S.getInt(), 7);
  EXPECT_EQ(Keep.getString(), "text") << "shared payload survives";
  Value A = Value::makeArray({Value::makeInt(1)});
  A.setInt(-2);
  ASSERT_TRUE(A.isInt());
  EXPECT_EQ(A.getInt(), -2);
  EXPECT_TRUE(A.equals(Value::makeInt(-2)));
  Value U;
  U.setInt(0);
  EXPECT_TRUE(U.isInt());
}

TEST(ValueCow, SelfAssignmentAndMoveFromOwnElement) {
  Value A = Value::makeArray({Value::makeArray({Value::makeInt(4)})});
  Value &Self = A;
  A = Self;
  EXPECT_EQ(A.str(), "[[4]]");
  // The source lives inside the payload being replaced.
  A = std::move(A.getElemsMutable()[0]);
  EXPECT_EQ(A.str(), "[4]");
  A = A.getElems()[0];
  EXPECT_EQ(A.getInt(), 4);
}

TEST(ValueCow, ConcurrentCopiesOfOneSharedValue) {
  // Simulation workers and daemon threads copy and drop Values that share
  // one payload; each thread's writes must stay private (run under TSan
  // by the tsan preset).
  const Value Shared = Value::makeArray(
      {Value::makeString("s"), Value::makeArray({Value::makeInt(0)})});
  std::vector<std::thread> Threads;
  std::vector<int64_t> Sums(4, 0);
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I != 2000; ++I) {
        Value Copy = Shared;
        Copy.getElemsMutable()[1].getElemsMutable()[0] = Value::makeInt(I);
        Sums[T] += Copy.getElems()[1].getElems()[0].getInt();
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (int64_t Sum : Sums)
    EXPECT_EQ(Sum, 1999 * 2000 / 2);
  EXPECT_EQ(Shared.str(), "[\"s\", [0]]");
}

//===----------------------------------------------------------------------===//
// Operator semantics (shared by LSS and BSL)
//===----------------------------------------------------------------------===//

struct ArithCase {
  BinaryOp Op;
  int64_t A, B, Expected;
};

class IntArithTest : public ::testing::TestWithParam<ArithCase> {};

TEST_P(IntArithTest, Computes) {
  OpFixture F;
  const ArithCase &C = GetParam();
  Value R = F.bin(C.Op, Value::makeInt(C.A), Value::makeInt(C.B));
  ASSERT_TRUE(R.isInt());
  EXPECT_EQ(R.getInt(), C.Expected);
  EXPECT_FALSE(F.Diags.hasErrors());
}

INSTANTIATE_TEST_SUITE_P(
    Table, IntArithTest,
    ::testing::Values(ArithCase{BinaryOp::Add, 7, 5, 12},
                      ArithCase{BinaryOp::Sub, 7, 5, 2},
                      ArithCase{BinaryOp::Mul, 7, 5, 35},
                      ArithCase{BinaryOp::Div, 7, 5, 1},
                      ArithCase{BinaryOp::Rem, 7, 5, 2},
                      ArithCase{BinaryOp::Add, -3, 3, 0},
                      ArithCase{BinaryOp::Div, -8, 2, -4},
                      ArithCase{BinaryOp::Mul, 0, 99, 0}));

TEST(ExprOps, MixedIntFloatPromotes) {
  OpFixture F;
  Value R = F.bin(BinaryOp::Add, Value::makeInt(1), Value::makeFloat(0.5));
  ASSERT_TRUE(R.isFloat());
  EXPECT_DOUBLE_EQ(R.getFloat(), 1.5);
}

TEST(ExprOps, StringConcatAndCompare) {
  OpFixture F;
  EXPECT_EQ(F.bin(BinaryOp::Add, Value::makeString("ab"),
                  Value::makeString("cd"))
                .getString(),
            "abcd");
  EXPECT_TRUE(F.bin(BinaryOp::Lt, Value::makeString("a"),
                    Value::makeString("b"))
                  .getBool());
  EXPECT_TRUE(F.bin(BinaryOp::Eq, Value::makeString("x"),
                    Value::makeString("x"))
                  .getBool());
}

TEST(ExprOps, Comparisons) {
  OpFixture F;
  EXPECT_TRUE(F.bin(BinaryOp::Le, Value::makeInt(3), Value::makeInt(3))
                  .getBool());
  EXPECT_FALSE(F.bin(BinaryOp::Gt, Value::makeInt(3), Value::makeInt(3))
                   .getBool());
  EXPECT_TRUE(
      F.bin(BinaryOp::Ne, Value::makeInt(3), Value::makeFloat(3.5))
          .getBool());
  EXPECT_TRUE(
      F.bin(BinaryOp::Eq, Value::makeInt(3), Value::makeFloat(3.0))
          .getBool());
}

TEST(ExprOps, LogicalOps) {
  OpFixture F;
  EXPECT_TRUE(F.bin(BinaryOp::And, Value::makeBool(true),
                    Value::makeBool(true))
                  .getBool());
  EXPECT_TRUE(F.bin(BinaryOp::Or, Value::makeBool(false),
                    Value::makeBool(true))
                  .getBool());
  F.bin(BinaryOp::And, Value::makeInt(1), Value::makeBool(true));
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(ExprOps, DivisionByZeroDiagnosed) {
  OpFixture F;
  Value R = F.bin(BinaryOp::Div, Value::makeInt(1), Value::makeInt(0));
  EXPECT_TRUE(R.isUnset());
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(ExprOps, TypeErrorsDiagnosed) {
  OpFixture F;
  F.bin(BinaryOp::Add, Value::makeBool(true), Value::makeInt(1));
  EXPECT_TRUE(F.Diags.hasErrors());
}

TEST(ExprOps, Unary) {
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  EXPECT_EQ(applyUnary(UnaryOp::Neg, Value::makeInt(5), SourceLoc(), Diags)
                .getInt(),
            -5);
  EXPECT_DOUBLE_EQ(
      applyUnary(UnaryOp::Neg, Value::makeFloat(2.5), SourceLoc(), Diags)
          .getFloat(),
      -2.5);
  EXPECT_FALSE(
      applyUnary(UnaryOp::Not, Value::makeBool(true), SourceLoc(), Diags)
          .getBool());
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(ExprOps, CommonBuiltinsDispatch) {
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  auto Call = [&](const std::string &Name, std::vector<Value> Args) {
    return applyCommonBuiltin(Name, Args, SourceLoc(), Diags);
  };
  EXPECT_EQ(Call("min", {Value::makeInt(2), Value::makeInt(9)})->getInt(), 2);
  EXPECT_EQ(Call("bit", {Value::makeInt(0b1010), Value::makeInt(3)})
                ->getInt(),
            1);
  EXPECT_EQ(Call("str", {Value::makeInt(12)})->getString(), "12");
  EXPECT_EQ(Call("float", {Value::makeInt(2)})->getFloat(), 2.0);
  Value Appended =
      *Call("append", {Value::makeArray({}), Value::makeInt(1)});
  EXPECT_EQ(Appended.getElems().size(), 1u);
  // Unknown builtin: nullopt, no diagnostic (caller decides).
  EXPECT_FALSE(Call("no_such_builtin", {}).has_value());
  EXPECT_FALSE(Diags.hasErrors());
  // Arity error: diagnostic.
  Call("min", {Value::makeInt(1)});
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ExprOps, ConditionRequiresBool) {
  SourceMgr SM;
  DiagnosticEngine Diags(SM);
  EXPECT_EQ(asCondition(Value::makeBool(true), SourceLoc(), Diags), true);
  EXPECT_EQ(asCondition(Value::makeInt(1), SourceLoc(), Diags),
            std::nullopt);
  EXPECT_TRUE(Diags.hasErrors());
}

} // namespace
