/* Minimal stand-in for <clang-c/Index.h>, declaring exactly the API
 * subset frontend_clang.cpp uses. It exists so hosts WITHOUT libclang
 * dev packages can still syntax-check the frontend (CTest target
 * sxsema_frontend_syntax compiles frontend_clang.cpp with -fsyntax-only
 * against this directory). It is never used for a real build or link:
 * when CMake finds genuine clang-c headers, those are used instead.
 *
 * Struct layouts mirror the stable libclang ABI, but nothing here is
 * ever executed — only parsed. */
#ifndef SXSEMA_STUB_CLANG_C_INDEX_H
#define SXSEMA_STUB_CLANG_C_INDEX_H

#ifdef __cplusplus
extern "C" {
#endif

typedef void* CXIndex;
typedef struct CXTranslationUnitImpl* CXTranslationUnit;
typedef void* CXFile;
typedef void* CXClientData;

typedef struct {
  const void* data;
  unsigned private_flags;
} CXString;

typedef struct {
  const void* ptr_data[2];
  unsigned int_data;
} CXSourceLocation;

struct CXUnsavedFile {
  const char* Filename;
  const char* Contents;
  unsigned long Length;
};

enum CXErrorCode {
  CXError_Success = 0,
  CXError_Failure = 1,
  CXError_Crashed = 2,
  CXError_InvalidArguments = 3,
  CXError_ASTReadError = 4
};

enum CXCursorKind {
  CXCursor_UnexposedDecl = 1,
  CXCursor_StructDecl = 2,
  CXCursor_UnionDecl = 3,
  CXCursor_ClassDecl = 4,
  CXCursor_FunctionDecl = 8,
  CXCursor_VarDecl = 9,
  CXCursor_CXXMethod = 21,
  CXCursor_Namespace = 22,
  CXCursor_LinkageSpec = 23,
  CXCursor_Constructor = 24,
  CXCursor_Destructor = 25,
  CXCursor_ConversionFunction = 26,
  CXCursor_FunctionTemplate = 30,
  CXCursor_ClassTemplate = 31,
  CXCursor_ClassTemplatePartialSpecialization = 32,
  CXCursor_FirstExpr = 100,
  CXCursor_DeclRefExpr = 101,
  CXCursor_MemberRefExpr = 102,
  CXCursor_CallExpr = 103,
  CXCursor_CXXNewExpr = 134,
  CXCursor_LambdaExpr = 144,
  CXCursor_ReturnStmt = 214,
  CXCursor_CXXForRangeStmt = 225,
  CXCursor_TranslationUnit = 350
};

typedef struct {
  enum CXCursorKind kind;
  int xdata;
  const void* data[3];
} CXCursor;

enum CXTypeKind {
  CXType_Invalid = 0,
  CXType_Unexposed = 1,
  CXType_Double = 22,
  CXType_Record = 105
};

typedef struct {
  enum CXTypeKind kind;
  void* data[2];
} CXType;

enum CXChildVisitResult {
  CXChildVisit_Break,
  CXChildVisit_Continue,
  CXChildVisit_Recurse
};

enum CX_CXXAccessSpecifier {
  CX_CXXInvalidAccessSpecifier,
  CX_CXXPublic,
  CX_CXXProtected,
  CX_CXXPrivate
};

enum CXTranslationUnit_Flags { CXTranslationUnit_None = 0x0 };

typedef enum CXChildVisitResult (*CXCursorVisitor)(CXCursor cursor,
                                                   CXCursor parent,
                                                   CXClientData client_data);

CXIndex clang_createIndex(int excludeDeclarationsFromPCH,
                          int displayDiagnostics);
void clang_disposeIndex(CXIndex index);

const char* clang_getCString(CXString string);
void clang_disposeString(CXString string);

enum CXErrorCode clang_parseTranslationUnit2FullArgv(
    CXIndex CIdx, const char* source_filename,
    const char* const* command_line_args, int num_command_line_args,
    struct CXUnsavedFile* unsaved_files, unsigned num_unsaved_files,
    unsigned options, CXTranslationUnit* out_TU);
void clang_disposeTranslationUnit(CXTranslationUnit unit);
CXCursor clang_getTranslationUnitCursor(CXTranslationUnit unit);
CXString clang_getTranslationUnitSpelling(CXTranslationUnit unit);

unsigned clang_visitChildren(CXCursor parent, CXCursorVisitor visitor,
                             CXClientData client_data);

enum CXCursorKind clang_getCursorKind(CXCursor cursor);
unsigned clang_isDeclaration(enum CXCursorKind kind);
CXString clang_getCursorSpelling(CXCursor cursor);
CXType clang_getCursorType(CXCursor cursor);
CXType clang_getCanonicalType(CXType type);
CXString clang_getTypeSpelling(CXType type);
CXType clang_getCursorResultType(CXCursor cursor);
CXSourceLocation clang_getCursorLocation(CXCursor cursor);
void clang_getSpellingLocation(CXSourceLocation location, CXFile* file,
                               unsigned* line, unsigned* column,
                               unsigned* offset);
CXString clang_getFileName(CXFile file);
CXCursor clang_getCursorReferenced(CXCursor cursor);
CXCursor clang_getCursorSemanticParent(CXCursor cursor);
int clang_Cursor_isNull(CXCursor cursor);
unsigned clang_isCursorDefinition(CXCursor cursor);
enum CX_CXXAccessSpecifier clang_getCXXAccessSpecifier(CXCursor cursor);
unsigned clang_equalCursors(CXCursor a, CXCursor b);

#ifdef __cplusplus
}
#endif

#endif /* SXSEMA_STUB_CLANG_C_INDEX_H */
